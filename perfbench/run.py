"""Benchmark of trilap's three user-facing jobs, timed from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate_d3 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Workloads (why each exists is in BENCHMARK.json):
  simulate_d3           `trilap simulate`, diagonal logistic system, d=3, n=64
  counterexample_sweep  two eps-dilation experiments on coupled systems
  audit_batch           `trilap audit --json` over 120 generated configs

Each workload is a closed loop with one caller, in its own process, with
BLAS/OpenMP threads pinned to 1.  A run repeats units of work (one
simulate run, one sweep, one pass over the audit batch), at least two, and
after that starts no unit it expects to end after --seconds.  Every operation is checked against
references.json; a mismatch counts the operation as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced units, prints the per-layer metrics and the
tracing overhead, and writes the spans to .perfbench/.  Every metric is
printed by name with its unit, then the environment, then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every operation matched its reference, 1 when any
check failed, 2 when the benchmark could not run (no result line).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# set before numpy loads: one BLAS/OpenMP thread keeps runs on a shared box steady
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# a traced run needs an untraced and a traced unit; plain runs take a median of two too
MIN_UNITS = 2
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import trilap.cli; print(time.perf_counter() - t)"
)
# the job each workload's work_per_s counts, under the name the issue uses
WORK_NAMES = {
    "simulate_d3": "mode_steps_per_s",
    "counterexample_sweep": "eps_points_per_s",
    "audit_batch": "audits_per_s",
}


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "trilap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def import_seconds():
    """Time to import the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.strip())


@dataclass
class Op:
    """One timed operation and the outcome of its output checks."""

    seconds: float
    work: float = 0.0
    problem: str | None = None
    out: dict | None = None


def run_unit(wl, refs, tracer, compare):
    ops = []
    for key, call in wl.calls():
        t0 = perf_counter()
        try:
            raw = call()
            seconds = perf_counter() - t0
            out = wl.outputs(key, raw)
            problem = compare(out, refs[key]) if key in refs else f"no reference for {key}"
            problem = problem or wl.hard_check(key, out)
            if tracer is not None:
                tracer.counts["cli.bytes_written"] += wl.bytes_written(raw)
            ops.append(Op(seconds, wl.work(out), problem, out))
        except Exception:  # noqa: BLE001 - an operation that raises is a failed operation
            ops.append(Op(perf_counter() - t0, problem=traceback.format_exc(limit=4)))
    return ops


def run_workload(name, seed, seconds, trace, declared):
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import VARIANTS, WORKLOADS, compare

    variant = seed % VARIANTS
    workdir = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](ROOT, workdir, variant)
        refs = json.loads((HERE / "references.json").read_text())[name][str(variant)]

        setups = []
        for _ in range(SETUP_REPEATS):
            imp = import_seconds()
            t0 = perf_counter()
            wl.generate()
            setups.append(imp + perf_counter() - t0)

        units, tracers = [], []
        start = perf_counter()
        while True:
            tracer = Tracer() if trace and len(units) % 2 == 1 else None
            if tracer is not None:
                tracer.install()
            try:
                ops = run_unit(wl, refs, tracer, compare)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            units.append(ops)
            tracers.append(tracer)
            unit_secs = [sum(op.seconds for op in u) for u in units]
            if (len(units) >= MIN_UNITS
                    and perf_counter() - start + statistics.median(unit_secs) > seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ops = [op for u in units for op in u]
        failed = [op for op in ops if op.problem]
        last_out = next((op.out for op in reversed(ops) if op.out is not None), {})
        findings = wl.findings(last_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{name}: seed {seed} (input variant {variant} of {VARIANTS}), closed loop, 1 caller, "
          f"{len(units)} units, {len(ops)} operations, {len(failed)} failed")
    for op in failed[:5]:
        print(f"  FAILED: {op.problem}")
    info = {}
    if not trace:
        op_secs = [op.seconds for op in ops]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(unit_secs),
            "work_per_s": statistics.median(
                sum(op.work for op in u) / sum(op.seconds for op in u) for u in units),
            "op_p50_ms": 1000.0 * statistics.median(op_secs),
            "op_p95_ms": 1000.0 * nearest_rank(op_secs, 0.95),
            "peak_rss_mb": peak_rss_mb,
        }
        info[WORK_NAMES[name]] = (metrics["work_per_s"], "1/s")
        info["op_samples"] = (len(op_secs), "count")
        info["fail_ratio"] = (len(failed) / len(ops), "ratio")
    else:
        traced = [i for i, t in enumerate(tracers) if t is not None]
        layers = [tracers[i].layer_metrics() for i in traced]
        metrics = {}
        for key in layers[0]:
            values = [lm[key] for lm in layers]
            metrics[key] = values[0] if declared[key] != "s" else statistics.median(values)
            if declared[key] != "s" and len(set(values)) > 1:
                print(f"  NOTE: {key} differs between traced units: {values}")
        untraced = [unit_secs[i] for i in range(len(units)) if tracers[i] is None]
        traced_secs = [unit_secs[i] for i in traced]
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_secs) / statistics.median(untraced) - 1.0)
        info["untraced_unit_s"] = (statistics.median(untraced), "s")
        info["traced_unit_s"] = (statistics.median(traced_secs), "s")
        spans_file = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps([
            [[n, s - t.spans[0][1], e - t.spans[0][1], p] for n, s, e, p in t.spans]
            for t in tracers if t is not None
        ]))
        info["spans_file"] = (str(spans_file.relative_to(ROOT)), "path")

    for key, value in metrics.items():
        print(f"  {key:34s} {value:.6g} {declared[key]}")
    for key, (value, unit) in info.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {key:34s} {shown} {unit}")
    for line in findings:
        print(f"  finding: {line}")
    print("  environment: " + json.dumps(environment()))
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    }


def run_all(args):
    """Every workload in its own process; combined result keyed workload.metric."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORK_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} could not run (exit {proc.returncode})")
        part = json.loads(lines[-1])
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    return result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORK_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "trilap" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, declared)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - no result line, distinct exit status
        traceback.print_exc()
        sys.exit(2)
