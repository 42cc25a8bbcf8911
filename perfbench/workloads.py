"""The three benchmark workloads: inputs, one unit of work, and output checks.

Every workload is a closed loop with one caller.  Inputs are drawn from one
of `VARIANTS` input sets chosen by ``seed % VARIANTS``; references.json
holds the outputs the seed commit produced for every variant, so each
operation is checked against a stored value whatever seed is passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from trilap import cli, probes
from trilap.core import Grid

VARIANTS = 8

# Stored floats must agree to |x - ref| <= ATOL + RTOL * |ref|.  Loose enough
# for a switch to real-to-complex transforms or a diagonal propagator path
# (those agree with the complex/Pade path to ~1e-12 relative), tight enough
# to catch a wrong step, sign or coupling.
RTOL = 1e-8
ATOL = 1e-10

# the counterexample's negativity certificate: every eps point must drive
# the pinned component below this on the grid
NEGATIVITY_THRESHOLD = -1e-8


def call_cli(argv):
    """Run `trilap <argv>` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def output_bytes(outdir: Path, stdout: str) -> int:
    """Bytes one CLI call wrote: stdout plus every file in its output directory."""
    return len(stdout.encode()) + sum(p.stat().st_size for p in outdir.iterdir())


def compare(out, ref, path="") -> str | None:
    """First difference between an output tree and its reference, or None."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return f"{path}: keys {sorted(out) if isinstance(out, dict) else out} != {sorted(ref)}"
        for k in ref:
            problem = compare(out[k], ref[k], f"{path}.{k}")
            if problem:
                return problem
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{path}: {out} != {ref}"
        for i, (o, r) in enumerate(zip(out, ref)):
            problem = compare(o, r, f"{path}[{i}]")
            if problem:
                return problem
        return None
    if isinstance(ref, float) and isinstance(out, (int, float)) and not isinstance(out, bool):
        if abs(out - ref) <= ATOL + RTOL * abs(ref):
            return None
        return f"{path}: {out!r} differs from {ref!r} beyond {ATOL:g} + {RTOL:g}*|ref|"
    return None if out == ref else f"{path}: {out!r} != {ref!r}"


class Workload:
    """Inputs for one variant, the operations of one unit of work, their checks.

    `generate()` writes the inputs (timed as set-up); `calls()` lists the
    (reference key, operation) pairs of one unit; `outputs()` reduces an
    operation's result to the values stored in references.json.
    """

    name = ""

    def __init__(self, root: Path, workdir: Path, variant: int):
        self.root, self.workdir, self.variant = root, workdir, variant
        self.out = workdir / "out"

    def hard_check(self, key, out) -> str | None:
        """A check that holds whatever the reference says; None when it passes."""
        return None

    def bytes_written(self, raw) -> int:
        """Bytes the CLI wrote for one operation (stdout and output files)."""
        return output_bytes(self.out, raw[1])

    def findings(self, last) -> list[str]:
        """Known defects to report, not gate on, given the last operation's outputs."""
        return []


class SimulateD3(Workload):
    """`trilap simulate` on diagonal_logistic.json lifted to d=3, n=64, box 32."""

    name = "simulate_d3"
    N_GRID, BOX, DT, STEPS = 64, 32.0, 0.02, 20

    def generate(self) -> None:
        cfg = json.loads((self.root / "configs" / "diagonal_logistic.json").read_text())
        cfg["d"] = 3
        cfg["Gamma"] = cfg["Gamma"] * 3
        cfg["grid"] = {"n": self.N_GRID, "box": self.BOX}
        self.config = self.workdir / "diagonal_logistic_d3.json"
        self.config.write_text(json.dumps(cfg, indent=2))
        self.ncomp = cfg["N"]
        self.argv = [
            "simulate", str(self.config),
            "--t-end", repr(self.DT * self.STEPS), "--dt", repr(self.DT),
            "--seed", str(self.variant), "--out", str(self.out), "--json",
        ]

    def calls(self):
        return [("run", lambda: call_cli(self.argv))]

    def work(self, out) -> float:
        """Mode-steps: components x modes x RK4 steps."""
        return self.ncomp * self.N_GRID**3 * self.STEPS

    def outputs(self, key, raw) -> dict:
        code, stdout, _ = raw
        out = {"exit": code}
        if code == 0:
            payload = json.loads(stdout)
            rows = (self.out / "timeseries.csv").read_text().splitlines()[-self.ncomp:]
            out["final_t"] = payload["final_t"]
            out["blown_up"] = payload["blown_up"]
            # last record per component: (min, mass, l2norm)
            out["last_record"] = [[float(r.split(",")[i]) for i in (2, 4, 5)] for r in rows]
        return out


class CounterexampleSweep(Workload):
    """Two eps-dilation experiments on coupled systems, through the library API.

    The CLI cannot run this: `trilap counterexample --d 2` (or 3) exits 5,
    because the command's manifest step reads grid settings bound only at d=1.
    """

    name = "counterexample_sweep"
    EPS = (1.0, 0.5, 0.25)

    def generate(self) -> None:
        rng = np.random.default_rng((2, self.variant))
        k, j = (0, 1) if rng.integers(2) == 0 else (1, 0)
        a = float(rng.uniform(0.5, 2.0))
        gamma = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
        axis = int(rng.integers(3))
        self.experiments = (
            ("diffusion", probes.DiffusionViolation(k=k, j=j, a=a), Grid(2, 256, 4.4)),
            ("transport", probes.TransportViolation(k=k, j=j, axis=axis, gamma=gamma),
             Grid(3, 64, 2.2)),
        )

    def calls(self):
        def sweep():
            return {label: probes.run_violation_experiment(kind, self.EPS, grid)
                    for label, kind, grid in self.experiments}
        return [("sweep", sweep)]

    def work(self, out) -> float:
        """eps points completed."""
        return sum(len(r["eps"]) for r in out.values())

    def outputs(self, key, raw) -> dict:
        return {
            label: {
                "eps": list(r.eps),
                "initial_rate_at_origin": list(r.initial_rate_at_origin),
                "min_after_t_probe": list(r.min_after_t_probe),
                "dropped": len(r.dropped),
            }
            for label, r in raw.items()
        }

    def hard_check(self, key, out) -> str | None:
        for label, r in out.items():
            if r["dropped"] or len(r["eps"]) != len(self.EPS):
                return f"{label}: eps points dropped"
            above = [m for m in r["min_after_t_probe"] if not m < NEGATIVITY_THRESHOLD]
            if above:
                return f"{label}: no negativity certificate, minima {above} >= {NEGATIVITY_THRESHOLD}"
        return None

    def bytes_written(self, raw) -> int:
        return 0  # library calls only: nothing goes through the CLI

    def findings(self, last) -> list[str]:
        lines = []
        diff = last.get("diffusion")
        if diff and len(diff["eps"]) == len(self.EPS):
            kind = self.experiments[0][1]
            d = self.experiments[0][2].d
            slope = probes.fit_power_law(tuple(diff["eps"]), tuple(diff["initial_rate_at_origin"]))
            rate = diff["initial_rate_at_origin"][1]
            expected = -kind.a * d**3 / 0.5**6
            lines.append(
                f"DiffusionViolation d={d}: fitted slope {slope:.3f} (expected "
                f"{kind.expected_slope:g}); rate at eps=0.5 {rate:.4g} (expected -a*d^3/eps^6 = "
                f"{expected:.4g})"
            )
        trans = last.get("transport")
        if trans and len(trans["eps"]) == len(self.EPS):
            slope = probes.fit_power_law(tuple(trans["eps"]), tuple(trans["initial_rate_at_origin"]))
            lines.append(f"TransportViolation d=3: fitted slope {slope:.3f} (expected -1)")
        for d in (2, 3):
            code, _, err = call_cli([
                "counterexample", "--kind", "diffusion", "--d", str(d), "--n", "32",
                "--eps", "1", "--out", str(self.workdir / "cli-counterexample"),
            ])
            lines.append(f"`trilap counterexample --d {d}` exits {code} {err.strip()!r}")
        return lines


# the four config families of configs/, each with a passing and a failing form
FAMILIES = ("logistic", "lotka_volterra", "coupled_diffusion", "coupled_transport")


def audit_config(family: str, d: int, ncomp: int, passing: bool, rng) -> dict:
    """One generated system config.

    Failing forms: one off-diagonal entry of A (coupled_diffusion) or of one
    Gamma[i] (coupled_transport); for the polynomial families a face term
    b*u_j (logistic) or b*u_j^2 (Lotka-Volterra) in one component, positive
    at every face sample with u_j > 0, so the report lists each such
    sample as a witness.
    """
    diag = rng.uniform(0.5, 2.0, ncomp)
    A = np.diag(diag)
    gammas = [np.diag(rng.uniform(-0.5, 0.5, ncomp)) for _ in range(d)]
    k, j = rng.choice(ncomp, size=2, replace=False)
    terms = [[] for _ in range(ncomp)]
    if family == "logistic":
        for c in range(ncomp):
            e2, e1 = [0] * ncomp, [0] * ncomp
            e2[c], e1[c] = 2, 1
            terms[c] = [{"coeff": float(rng.uniform(0.5, 1.5)), "exponents": e2},
                        {"coeff": -float(rng.uniform(0.5, 1.5)), "exponents": e1}]
    elif family == "lotka_volterra":
        for c in range(ncomp):
            e1 = [0] * ncomp
            e1[c] = 1
            terms[c] = [{"coeff": -float(rng.uniform(0.5, 1.5)), "exponents": e1}]
            for other in range(ncomp):
                if other != c:
                    e = [0] * ncomp
                    e[c], e[other] = 1, 1
                    terms[c].append({"coeff": float(rng.uniform(-0.5, 0.5)), "exponents": e})
    if not passing:
        if family == "coupled_diffusion":
            A[k, j] = rng.uniform(0.1, 0.4)
        elif family == "coupled_transport":
            gammas[int(rng.integers(d))][k, j] = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
        else:
            e = [0] * ncomp
            e[j] = 1 if family == "logistic" else 2
            terms[k].append({"coeff": float(rng.uniform(0.5, 1.5)), "exponents": e})
    reaction = {"kind": "polynomial", "terms": terms} if family in FAMILIES[:2] else {"kind": "zero"}
    return {
        "d": d,
        "N": ncomp,
        "A": A.tolist(),
        "Gamma": [g.tolist() for g in gammas],
        "reaction": reaction,
        "grid": {"n": 64, "box": 32.0},
    }


class AuditBatch(Workload):
    """`trilap audit --json` over a batch of generated configs, one call each."""

    name = "audit_batch"
    SAMPLES = 256
    largest = (0, 0, "")  # (violations, stdout bytes, key) of the largest report

    def generate(self) -> None:
        cfgdir = self.workdir / "configs"
        cfgdir.mkdir(exist_ok=True)
        self.batch = []
        for family in FAMILIES:
            for d in (1, 2, 3):
                for passing in (True, False):
                    for ncomp in (2, 3, 4, 5, 6):
                        key = f"{family}-d{d}-N{ncomp}-{'pass' if passing else 'fail'}"
                        seed = [3, self.variant, FAMILIES.index(family), d, ncomp, int(passing)]
                        cfg = audit_config(family, d, ncomp, passing, np.random.default_rng(seed))
                        path = cfgdir / f"{key}.json"
                        path.write_text(json.dumps(cfg, indent=2))
                        argv = ["audit", str(path), "--json", "--out", str(self.out),
                                "--seed", str(self.variant), "--samples", str(self.SAMPLES)]
                        self.batch.append((key, argv))

    def calls(self):
        return [(key, lambda argv=argv: call_cli(argv)) for key, argv in self.batch]

    def work(self, out) -> float:
        return 1.0

    def outputs(self, key, raw) -> dict:
        code, stdout, _ = raw
        out = {"exit": code}
        if code in (0, 2, 3):
            report = json.loads(stdout)
            rules = {}
            for v in report["violations"]:
                rules[v["rule"]] = rules.get(v["rule"], 0) + 1
            sites = sorted(json.dumps([v["rule"], v["site"]], sort_keys=True)
                           for v in report["violations"])
            out["overall"] = report["overall"]
            out["rules"] = rules
            out["sites_sha256"] = hashlib.sha256("\n".join(sites).encode()).hexdigest()[:16]
            self.largest = max(self.largest, (len(sites), len(stdout.encode()), key))
        return out

    def findings(self, last) -> list[str]:
        n, size, key = self.largest
        return [f"audit reports list every violating sample: largest report {key} has "
                f"{n} violations, {size} bytes of JSON on stdout"]


WORKLOADS = {w.name: w for w in (SimulateD3, CounterexampleSweep, AuditBatch)}

