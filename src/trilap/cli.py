"""Command-line front end.

Subcommands: audit, simulate, probe, counterexample, ode-check.

Exit codes: 0 success (for `counterexample`: the expected negativity WAS
observed), 2 audit fail / negativity missing / tolerance exceeded,
3 warnings only, 4 usage or config error, 5 runtime error.

Every invocation writes a manifest (tool version, argv, seed, config echo)
into the output directory so results can be reproduced byte for byte.
JSON files hold one line of compact JSON; a report file is exactly the
text `--json` prints, so each report is encoded once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    Field,
    Grid,
    load_grid,
    load_system,
    parse_config,
)
from .criterion import SignSampler, audit
from .probes import (
    DiffusionViolation,
    Mollifier,
    ProbeConstructionError,
    ReactionViolation,
    TransportViolation,
    axis_derivative_at_origin,
    build_diffusion_probe,
    build_transport_probe,
    lap3_at_origin,
    ode_reduction_check,
    probe_grid,
    run_violation_experiment,
)
from .stepper import RunConfig, run, suggest_dt

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_WARNINGS = 3
EXIT_USAGE = 4
EXIT_RUNTIME = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # parse_args leaves the parser unchanged, so one instance serves every main() call
    p = _Parser(prog="trilap", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"trilap {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("audit", help="structural nonnegativity audit of a system config")
    pa.add_argument("config", help="path to a JSON system config")
    pa.add_argument("--tol", type=float, default=0.0, help="diagonality tolerance (default exact)")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--samples", type=int, default=256, help="reaction samples per component")
    pa.add_argument("--out", default="out")
    pa.add_argument("--json", action="store_true", help="machine-readable stdout")

    ps = sub.add_parser("simulate", help="advance a system and record diagnostics")
    ps.add_argument("config")
    ps.add_argument("--t-end", type=float, required=True)
    ps.add_argument("--dt", type=float, default=None,
                    help="time step (default: largest step inside the exp range budget)")
    ps.add_argument("--stride", type=int, default=1)
    ps.add_argument("--no-dealias", action="store_true")
    ps.add_argument(
        "--u0", default="gaussian",
        help="initial data: 'gaussian' (default) or 'constant:v1,v2,...'",
    )
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default="out")
    ps.add_argument("--json", action="store_true")

    pp = sub.add_parser("probe", help="build a probe and report its key derivative")
    pp.add_argument("--kind", choices=("diffusion", "transport"), required=True)
    pp.add_argument("--d", type=int, choices=(1, 2, 3), required=True)
    pp.add_argument("--eps", type=float, default=1.0)
    pp.add_argument("--n", type=int, default=None)
    pp.add_argument("--box", type=float, default=None)
    pp.add_argument("--axis", type=int, default=1, help="transport axis (1-based)")
    pp.add_argument("--sign", type=int, choices=(-1, 1), default=1)
    pp.add_argument("--r0", type=float, default=None)
    pp.add_argument("--r1", type=float, default=None)
    pp.add_argument("--out", default="out")
    pp.add_argument("--json", action="store_true")

    pc = sub.add_parser("counterexample", help="negativity experiment for a violating coupling")
    pc.add_argument("--kind", choices=("diffusion", "transport", "reaction"), required=True)
    pc.add_argument("--k", type=int, default=1, help="pinned component (1-based)")
    pc.add_argument("--j", type=int, default=2, help="probe component (1-based)")
    pc.add_argument("--a", type=float, default=1.0, help="diffusion coupling strength")
    pc.add_argument("--gamma", type=float, default=1.0, help="transport coupling strength")
    pc.add_argument("--axis", type=int, default=1, help="transport axis (1-based)")
    pc.add_argument("--d", type=int, choices=(1, 2, 3), default=1)
    pc.add_argument("--eps", default="1,0.5,0.25", help="comma-separated dilation scales")
    pc.add_argument("--n", type=int, default=None)
    pc.add_argument("--box", type=float, default=None)
    pc.add_argument("--t-probe", type=float, default=None)
    pc.add_argument("--out", default="out")
    pc.add_argument("--json", action="store_true")

    po = sub.add_parser("ode-check", help="constant-data PDE run against the u' = -F(u) solver")
    po.add_argument("config")
    po.add_argument("--t-end", type=float, default=1.0)
    po.add_argument("--dt", type=float, default=1.0 / 128.0)
    po.add_argument("--u0", default="1", help="comma-separated nonnegative start values")
    po.add_argument("--tol", type=float, default=1e-8)
    po.add_argument("--out", default="out")
    po.add_argument("--json", action="store_true")
    return p


def _write_manifest(outdir: Path, argv, seed, config_echo) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": f"trilap {__version__}",
        "command": list(argv),
        "seed": seed,
        "config": config_echo,
    }
    _write_json(outdir / "manifest.json", manifest)


def _write_json(path: Path, payload: dict) -> str:
    """Write payload as one line of JSON; returns that text, which `--json` prints."""
    text = json.dumps(payload)
    path.write_text(text + "\n")
    return text


def _emit(args, encoded: str, line: str) -> None:
    """Print the payload's JSON text under --json, else the human-readable line."""
    print(encoded if args.json else line)


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")


def _cmd_audit(args, argv) -> int:
    _require(args.samples >= 1, "--samples", ">= 1", args.samples)
    _require(args.seed >= 0, "--seed", ">= 0", args.seed)
    _require(args.tol >= 0, "--tol", ">= 0", args.tol)
    text = _read_config(args.config)
    spec = load_system(text)
    sampler = SignSampler(samples_per_component=args.samples, seed=args.seed)
    report = audit(spec, sampler, tol=args.tol)
    outdir = Path(args.out)
    _write_manifest(outdir, argv, args.seed, parse_config(text))
    encoded = _write_json(outdir / "audit_report.json", report.to_dict())
    verdict = "PASS" if report.overall else "FAIL"
    _emit(
        args,
        encoded,
        f"audit {verdict}: {len(report.violations)} violation(s), "
        f"{len(report.warnings)} warning(s); report in {outdir / 'audit_report.json'}",
    )
    if not report.overall:
        return EXIT_FAIL
    return EXIT_WARNINGS if report.warnings else EXIT_OK


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Reject a flag value unless `ok`; the message quotes the flag and the value."""
    if not ok:
        shown = value if isinstance(value, str) else f"{value:g}"
        raise ConfigError(f"{flag} must be {rule}, got {shown}")


def _floats(text: str, flag: str) -> np.ndarray:
    """Comma-separated finite numbers of a command-line flag."""
    try:
        vals = np.array([float(x) for x in text.split(",")])
    except ValueError:
        vals = None
    _require(vals is not None and np.all(np.isfinite(vals)), flag,
             "comma-separated finite numbers", text)
    return vals


def _positive(value: float, flag: str) -> None:
    _require(math.isfinite(value) and value > 0, flag, "finite and > 0", value)


def _index(value: int, flag: str, top: int | None = None) -> int:
    """A 1-based flag value (1..top) as a 0-based index; errors quote the flag as typed."""
    if value < 1 or (top is not None and value > top):
        allowed = ">= 1" if top is None else f"in 1..{top}"
        raise ConfigError(f"{flag} must be {allowed}, got {value}")
    return value - 1


def _initial_data(kind: str, grid: Grid, ncomp: int, seed: int) -> Field:
    if kind.startswith("constant:"):
        vals = _floats(kind[len("constant:"):], "--u0 constant")
        if vals.shape[0] != ncomp:
            raise ConfigError(f"--u0 constant needs {ncomp} values, got {vals.shape[0]}")
        return Field(
            grid, np.broadcast_to(vals.reshape((ncomp,) + (1,) * grid.d), (ncomp,) + grid.shape)
        )
    if kind != "gaussian":
        raise ConfigError(f"unknown --u0 kind {kind!r}")
    rng = np.random.default_rng(seed)
    r2 = sum(m**2 for m in grid.coord_mesh)
    width = grid.box / 16.0
    values = np.stack(
        [rng.uniform(0.5, 1.5) * np.exp(-0.5 * r2 / width**2) for _ in range(ncomp)]
    )
    return Field(grid, values)


def _cmd_simulate(args, argv) -> int:
    _positive(args.t_end, "--t-end")
    if args.dt is not None:
        _positive(args.dt, "--dt")
    _require(args.stride >= 1, "--stride", ">= 1", args.stride)
    text = _read_config(args.config)
    spec = load_system(text)
    grid = load_grid(text)
    u0 = _initial_data(args.u0, grid, spec.ncomp, args.seed)
    dt = args.dt if args.dt is not None else suggest_dt(spec, grid, args.t_end)
    rc = RunConfig(
        t_end=args.t_end, dt=dt, output_stride=args.stride, dealias=not args.no_dealias
    )
    ts = run(spec, u0, rc)
    outdir = Path(args.out)
    _write_manifest(outdir, argv, args.seed, parse_config(text))
    csv_path = outdir / "timeseries.csv"
    csv_path.write_text(ts.to_csv())
    ts.save_final_state(outdir / "final_state.npz")
    _write_plot_script(outdir, "timeseries.csv", spec.ncomp)
    status = f"blew up at step {ts.blowup_step}" if ts.blown_up else f"reached t={ts.final_t:g}"
    _emit(
        args,
        json.dumps({
            "final_t": ts.final_t,
            "blown_up": ts.blown_up,
            "blowup_step": ts.blowup_step,
            "min_per_component": ts.diagnostics[-1, :, 0].tolist(),
        }),
        f"simulate: {status}; diagnostics in {csv_path}",
    )
    return EXIT_RUNTIME if ts.blown_up else EXIT_OK


def _write_plot_script(outdir: Path, csv_name: str, ncomp: int) -> None:
    lines = [
        "# gnuplot script: per-component minimum over time",
        "set datafile separator ','",
        "set key outside",
        "set xlabel 't'",
        "set ylabel 'min u_k'",
        "plot \\",
    ]
    plots = [
        f"  '{csv_name}' using 1:($2=={k}?$3:1/0) with linespoints title 'component {k}'"
        for k in range(ncomp)
    ]
    lines.append(", \\\n".join(plots))
    (outdir / "plot_min.gp").write_text("\n".join(lines) + "\n")


def _cmd_probe(args, argv) -> int:
    _positive(args.eps, "--eps")
    if args.box is not None:
        grid = Grid(d=args.d, n=args.n if args.n is not None else 256, box=args.box)
    else:
        grid = probe_grid(args.d, args.n)
    mol = None
    if args.r0 is not None or args.r1 is not None:
        if args.r0 is None or args.r1 is None:
            raise ConfigError("--r0 and --r1 must be given together")
        mol = Mollifier(args.r0, args.r1)

    if args.kind == "diffusion":
        fld = build_diffusion_probe(grid, args.eps, mol)
        value = lap3_at_origin(fld)
        reference = -float(grid.d) ** 3 / args.eps**6
        payload = {
            "kind": "diffusion",
            "lap3_at_origin": value,
            "reference": reference,
            "relative_error": abs(value - reference) / abs(reference),
        }
        line = (
            f"probe diffusion d={grid.d} eps={args.eps:g}: lap^3 at origin = {value:.6g} "
            f"(reference -d^3/eps^6 = {reference:.6g})"
        )
    else:
        axis = _index(args.axis, "--axis", grid.d)
        fld = build_transport_probe(grid, axis, args.sign, args.eps, mol)
        value = axis_derivative_at_origin(fld, axis)
        reference = -args.sign / args.eps
        payload = {
            "kind": "transport",
            "axis_derivative_at_origin": value,
            "reference": reference,
            "relative_error": abs(value - reference) / abs(reference),
        }
        line = (
            f"probe transport d={grid.d} axis={args.axis} eps={args.eps:g}: d/dx at origin = "
            f"{value:.6g} (reference -sign/eps = {reference:.6g})"
        )
    outdir = Path(args.out)
    _write_manifest(outdir, argv, None, payload | {"n": grid.n, "box": grid.box})
    _emit(args, json.dumps(payload), line)
    return EXIT_OK


def _cmd_counterexample(args, argv) -> int:
    d = args.d
    k, j = _index(args.k, "--k"), _index(args.j, "--j")
    if k == j:
        raise ConfigError(f"--k and --j must differ, got --k {args.k} --j {args.j}")
    if args.kind == "diffusion":
        _positive(args.a, "--a")
        kind = DiffusionViolation(k=k, j=j, a=args.a)
    elif args.kind == "transport":
        axis = _index(args.axis, "--axis", d)
        _require(math.isfinite(args.gamma) and args.gamma != 0, "--gamma",
                 "finite and nonzero", args.gamma)
        kind = TransportViolation(k=k, j=j, axis=axis, gamma=args.gamma)
    else:
        kind = ReactionViolation(k=k, j=j)
    eps_list = _floats(args.eps, "--eps").tolist()
    _require(min(eps_list) > 0, "--eps", "all positive", args.eps)
    if args.t_probe is not None:
        _positive(args.t_probe, "--t-probe")
    if d == 1:
        n = args.n if args.n is not None else 512
        grid = Grid(d=d, n=n, box=args.box if args.box is not None else 4.0)
    elif args.box is not None:
        grid = Grid(d=d, n=args.n if args.n is not None else 128, box=args.box)
    else:
        grid = probe_grid(d, args.n)
    report = run_violation_experiment(kind, eps_list, grid, t_probe=args.t_probe)
    for eps, reason in report.dropped:
        print(f"dropped eps {eps:g}: {reason}", file=sys.stderr)
    outdir = Path(args.out)
    _write_manifest(
        outdir, argv, None, {"kind": args.kind, "eps": eps_list, "n": grid.n, "box": grid.box}
    )
    encoded = _write_json(outdir / "violation_report.json", report.to_dict())
    slope = "n/a" if report.fitted_slope is None else f"{report.fitted_slope:.3f}"
    line = (
        f"counterexample {args.kind}: slope {slope} (expected {kind.expected_slope:g}), "
        f"negativity {'OBSERVED' if report.negativity_observed else 'NOT OBSERVED'}"
    )
    _emit(args, encoded, line)
    return EXIT_OK if report.negativity_observed else EXIT_FAIL


def _cmd_ode_check(args, argv) -> int:
    _positive(args.t_end, "--t-end")
    _positive(args.dt, "--dt")
    _require(args.tol >= 0, "--tol", ">= 0", args.tol)
    y0 = _floats(args.u0, "--u0")
    _require(np.all(y0 >= 0), "--u0", "nonnegative", args.u0)
    text = _read_config(args.config)
    spec = load_system(text)
    counts = "1 value" if spec.ncomp == 1 else f"1 or {spec.ncomp} values"
    _require(y0.shape[0] in (1, spec.ncomp), "--u0", counts, args.u0)
    if y0.shape[0] == 1 and spec.ncomp > 1:
        y0 = np.full(spec.ncomp, y0[0])
    cmp = ode_reduction_check(spec.reaction, y0, args.t_end, args.dt)
    outdir = Path(args.out)
    _write_manifest(outdir, argv, None, parse_config(text))
    encoded = _write_json(outdir / "ode_check.json", cmp.to_dict())
    ok = cmp.max_deviation <= args.tol and not cmp.blown_up
    line = (
        f"ode-check: max deviation {cmp.max_deviation:.3g} (tol {args.tol:g}), "
        f"first negativity pde={cmp.pde_first_negative} ode={cmp.ode_first_negative}"
    )
    _emit(args, encoded, line)
    return EXIT_OK if ok else EXIT_FAIL


_COMMANDS = {
    "audit": _cmd_audit,
    "simulate": _cmd_simulate,
    "probe": _cmd_probe,
    "counterexample": _cmd_counterexample,
    "ode-check": _cmd_ode_check,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, argv)
    except (ConfigError, ProbeConstructionError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
