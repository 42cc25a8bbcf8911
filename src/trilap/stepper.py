"""Time integration of the sixth-order reaction-diffusion-transport system.

Exactly linear reactions F = L u (Reaction.linear_matrix: polynomials of
degree-1 terms only, the config's "zero" and "linear" spellings among them)
are advanced exactly: one step is the per-mode exponential of the full
symbol with L folded in, so the only error is roundoff.  Others use
integrating-factor RK4 on v = exp(-t*M) u_hat (Kassam & Trefethen, SIAM J.
Sci. Comput. 26(4), 2005).  It needs only the half-step factor
E2 = exp(dt/2 M), since E = exp(dt M) = E2 E2:

    N1 = N(c)                       N(c) = -fft(F(ifft(c))), dealiased
    h  = E2 c,  g = E2 N1
    u2 = h + dt/2 g
    u3 = h + dt/2 N2
    u4 = E2 (h + dt N3)
    c' = E2 (h + dt/6 g + dt/3 (N2 + N3)) + dt/6 N4

four table applications per step, the classical form
c' = E c + dt/6 (E N1 + 2 E2 (N2 + N3) + N4) regrouped.  It reduces to
classical RK4 on u' = -F(u) when the symbol vanishes (spatially
homogeneous data).  Reaction products are dealiased with the 2/3 rule by
default.  An ETDRK4 variant would trade the exactness of the linear
substeps for one fewer nonlinear stage; exactness wins here.

Fields are real, so the state is carried as its half spectrum
(spectral.rfftn / irfftn, Grid.half_shape modes) and every propagator is
built on that layout.  Each state is transformed back once: the samples of
step n serve its blow-up check, its record and stage 1 of step n+1, so an
n-step IF-RK4 run makes 4n+1 forward and 4n+1 inverse transforms.
Audit-passing systems (diagonal D, T[i] and L) propagate elementwise, N
scalar exponentials per mode; coupled systems apply an N x N matrix per
mode.  A run builds one propagator table (exp(dt M) for exact steps, E2 for
IF-RK4) and drops it when it returns.

State with any |value| > 1e12 or a non-finite entry aborts the run and
returns the series recorded before it, flagged with the step where it
happened, whatever the output stride: every state is transformed back and
checked after its step.  That one check also catches a reaction that
overflows in any RK4 stage, at the same step: a non-finite reaction value
makes every sample of the step's state non-finite.  Initial data past 1e12
are a ConfigError.

A decoupled system (D and every T[a] diagonal, F_k reading u_k alone) is N
independent scalar problems.  From grid.size * n_steps >=
SPLIT_MIN_MODE_STEPS on, with more than one CPU in the affinity mask,
`fork` at hand (Linux) and no other thread running, `run` steps its
components in min(N, CPUs) contiguous chunks: chunk 0 in this process, each
other in a forked child that sends its TimeSeries back over a pipe.  The
bits are the serial run's, because every transform, table entry, reaction
term and diagnostic of component k reads component k alone; a chunk whose
own terms are linear still takes IF-RK4 when the whole system does.  If any
chunk blows up, the whole system is rerun in this process, so the blow-up
step, times and last state are the serial run's.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    DimensionMismatchError,
    Field,
    Grid,
    PolynomialReaction,
    SystemSpec,
)
from .spectral import _decoupled, build_propagator, irfftn, rfftn

__all__ = [
    "RunConfig",
    "TimeSeries",
    "BLOWUP_THRESHOLD",
    "MAX_STEPS",
    "suggest_dt",
    "run",
]

BLOWUP_THRESHOLD = 1e12

# exp argument cap: keep max|xi|^6 * dt * ||D||_2 below this so the
# propagator entries stay inside floating-point range with margin
EXP_RANGE_BUDGET = 700.0

# one run takes at most this many steps; a larger count comes from a dt far
# below any useful size (suggest_dt on a huge diffusion entry) and would not end
MAX_STEPS = 1_000_000

CSV_HEADER = "t,component,min,argmin_index,mass,l2norm"

# a decoupled run is split across processes from this many grid.size * n_steps
# on: below it, forking and the child's start cost about what the second core
# saves (BENCH_29.json, break_even)
SPLIT_MIN_MODE_STEPS = 3 * 2**18


@dataclass(frozen=True)
class RunConfig:
    """Step size, horizon and recording cadence for one run."""

    t_end: float
    dt: float
    output_stride: int = 1
    dealias: bool = True

    def __post_init__(self):
        if not (0 < self.dt <= self.t_end < math.inf):
            raise ConfigError(f"need 0 < dt <= t_end < inf, got dt={self.dt}, t_end={self.t_end}")
        steps = self.t_end / self.dt
        if not steps <= MAX_STEPS:
            raise ConfigError(
                f"t_end={self.t_end:g} at dt={self.dt:g} takes {steps:.3g} steps, "
                f"more than the budget of {MAX_STEPS}"
            )
        if not abs(steps - round(steps)) <= 1e-9 * steps:
            raise ConfigError(f"t_end/dt = {steps} does not round to an integer step count")
        if self.output_stride < 1:
            raise ConfigError(f"output_stride must be >= 1, got {self.output_stride}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Diagnostics at each recorded time plus the final (or last finite) state.

    diagnostics has shape (n_records, ncomp, 4) with columns
    (min, argmin flat index, mass, component L2 norm).  final_state is the
    state at the last recorded time.
    """

    times: np.ndarray
    diagnostics: np.ndarray
    final_state: Field
    blowup_step: int | None = None

    @property
    def grid(self) -> Grid:
        return self.final_state.grid

    @property
    def final_t(self) -> float:
        return float(self.times[-1])

    @property
    def blown_up(self) -> bool:
        return self.blowup_step is not None

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for t, rec in zip(self.times, self.diagnostics):
            for k, (mn, amin, mass, l2) in enumerate(rec):
                # repr of Python floats round-trips exactly and is deterministic
                lines.append(
                    f"{float(t)!r},{k},{float(mn)!r},{int(amin)},{float(mass)!r},{float(l2)!r}"
                )
        return "\n".join(lines) + "\n"

    def save_final_state(self, path) -> None:
        """Binary state dump: grid metadata, time and the sample array."""
        np.savez(
            path,
            values=self.final_state.values,
            t=self.final_t,
            d=self.grid.d,
            n=self.grid.n,
            box=self.grid.box,
            ncomp=self.final_state.ncomp,
        )


def suggest_dt(spec: SystemSpec, grid: Grid, t_end: float) -> float:
    """Largest dt dividing t_end with max|xi|^6 * dt * ||D||_2 <= 700.

    The propagator is exact at any dt, so this guards the exponential's
    floating-point range rather than accuracy; reactions that are not
    exactly linear may need a smaller dt for the RK4 stages.
    """
    if not 0 < t_end < math.inf:
        raise ConfigError(f"t_end must be positive and finite, got {t_end}")
    cap = EXP_RANGE_BUDGET / (grid.half_k_sixth.max() * np.linalg.norm(spec.diffusion, 2))
    steps = max(1, math.ceil(t_end / min(cap, t_end)))
    return t_end / steps


def _diagnostics_row(values: np.ndarray, grid: Grid) -> np.ndarray:
    w = grid.spacing**grid.d
    flat = values.reshape(values.shape[0], -1)
    amin = flat.argmin(axis=1)
    return np.column_stack([
        flat[np.arange(flat.shape[0]), amin],
        amin.astype(float),
        flat.sum(axis=1) * w,
        np.sqrt((flat**2).sum(axis=1) * w),
    ])


def _too_large(values: np.ndarray) -> bool:
    """Any entry above the blow-up threshold in magnitude, or not finite."""
    return not (-BLOWUP_THRESHOLD <= values.min() and values.max() <= BLOWUP_THRESHOLD)


def run(spec: SystemSpec, u0: Field, rc: RunConfig) -> TimeSeries:
    """Advance u from 0 to t_end, recording diagnostics every output stride.

    The state is checked for blow-up after every step, so blowup_step does
    not depend on the output stride.  A decoupled system may be stepped in
    chunks of components on several processes (`_chunks`), with the bits of
    the run in one process.
    """
    grid = u0.grid
    if grid.d != spec.d:
        raise DimensionMismatchError(f"grid dimension {grid.d} != system dimension {spec.d}")
    if u0.ncomp != spec.ncomp:
        raise DimensionMismatchError(
            f"initial data has {u0.ncomp} components, system has {spec.ncomp}"
        )
    if _too_large(u0.values):
        raise ConfigError(
            f"initial data must lie within +-{BLOWUP_THRESHOLD:g}, the blow-up threshold"
        )
    chunks = _chunks(spec, grid, rc)
    if chunks is None:
        return _integrate(spec, u0, rc)
    parts = _run_chunks(chunks, u0, rc)
    if any(ts.blown_up for ts in parts):
        # the whole state blows up at the first step any chunk does; the
        # serial run gives its series up to there and its last recorded state
        return _integrate(spec, u0, rc)
    return TimeSeries(
        times=parts[0].times,
        diagnostics=np.concatenate([ts.diagnostics for ts in parts], axis=1),
        final_state=Field(grid, np.concatenate([ts.final_state.values for ts in parts])),
    )


def _integrate(spec: SystemSpec, u0: Field, rc: RunConfig) -> TimeSeries:
    """The step loop of `run`, on initial data it has checked."""
    grid = u0.grid
    dt = rc.dt

    def to_values(c: np.ndarray) -> np.ndarray:
        return irfftn(c, grid.n, grid.d)

    coeffs = rfftn(u0.values, grid.d)
    if spec.reaction.linear_matrix() is not None:
        prop = build_propagator(spec, grid, dt)
        values = None  # a linear step reads only the spectrum

        def advance(c: np.ndarray, values) -> np.ndarray:
            return prop.apply(c)

    else:
        half = build_propagator(spec, grid, dt / 2.0)
        mask = grid.half_dealias_mask if rc.dealias else None
        react = spec.reaction

        def nonlinear(values: np.ndarray) -> np.ndarray:
            f = react.evaluate(values)
            fc = rfftn(np.negative(f, out=f), grid.d)
            if mask is not None:
                fc *= mask
            return fc

        def advance(c: np.ndarray, values: np.ndarray) -> np.ndarray:
            # stage 1 reads the values of c that the previous step computed; N1
            # and the stage states u2, u3, u4 stay unnamed so each is freed once used
            h, g = half.apply(c), half.apply(nonlinear(values))
            n2 = nonlinear(to_values(h + (dt / 2.0) * g))
            n3 = nonlinear(to_values(h + (dt / 2.0) * n2))
            n4 = nonlinear(to_values(half.apply(h + dt * n3)))
            return half.apply(h + (dt / 6.0) * g + (dt / 3.0) * (n2 + n3)) + (dt / 6.0) * n4

        values = to_values(coeffs)

    times = [0.0]
    rows = [_diagnostics_row(u0.values, grid)]
    last_values, blow_step = u0.values, None

    for step in range(1, rc.n_steps + 1):
        # a step that overflows is reported by the blow-up check, not by numpy
        # warnings.  A non-finite reaction value in any stage reaches every
        # sample: the FFT spreads it, and 0*inf is NaN under the table's exact
        # zeros and the dealias mask.
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = advance(coeffs, values)
            # transformed after advance returns, once its stage arrays are freed
            values = to_values(coeffs)
        if _too_large(values):
            blow_step = step
            break
        if step % rc.output_stride == 0 or step == rc.n_steps:
            times.append(step * dt)
            rows.append(_diagnostics_row(values, grid))
            last_values = values

    return TimeSeries(
        times=np.asarray(times),
        diagnostics=np.asarray(rows),
        final_state=Field(grid, last_values),
        blowup_step=blow_step,
    )


def _workers() -> int:
    """CPUs this process may run on: the one place the worker count is decided."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _SteppedReaction(PolynomialReaction):
    """A chunk's share of a polynomial that is not linear as a whole.

    It is stepped by IF-RK4 like the whole system, also where the chunk's
    own terms are all of degree 1: linear_matrix stays None.
    """

    def linear_matrix(self):
        return None


def _chunks(spec: SystemSpec, grid: Grid, rc: RunConfig) -> list[tuple[slice, SystemSpec]] | None:
    """The system as independent subsystems of contiguous components, one per worker.

    None, to run it whole, unless it is decoupled (D and every T[a]
    diagonal, F a PolynomialReaction whose F_k reads u_k alone), more than
    one CPU and `fork` are at hand, no other thread runs (a forked child
    would inherit its locks), and grid.size * n_steps reaches
    SPLIT_MIN_MODE_STEPS.  Each subsystem keeps its diagonal blocks and its
    components' terms, restricted to its components.
    """
    parts = min(spec.ncomp, _workers())
    react = spec.reaction
    if (parts < 2 or grid.size * rc.n_steps < SPLIT_MIN_MODE_STEPS or not hasattr(os, "fork")
            or threading.active_count() > 1 or not _decoupled(spec, ())
            or type(react) is not PolynomialReaction
            or any(e and l != k for k, comp in enumerate(react.terms)
                   for _, expo in comp for l, e in enumerate(expo))):
        return None
    chunk_reaction = PolynomialReaction if react.linear_matrix() is not None else _SteppedReaction
    bounds = [spec.ncomp * i // parts for i in range(parts + 1)]
    chunks = []
    for lo, hi in zip(bounds, bounds[1:]):
        s = slice(lo, hi)
        sub = chunk_reaction(tuple(tuple((c, e[s]) for c, e in comp) for comp in react.terms[s]))
        chunks.append((s, SystemSpec(spec.d, hi - lo, spec.diffusion[s, s],
                                     tuple(t[s, s] for t in spec.transport), sub)))
    return chunks


def _step_chunk(conn, spec: SystemSpec, u0: Field, rc: RunConfig) -> None:
    """A forked child's work: step one chunk and send (True, series) or (False, error)."""
    try:
        result = (True, _integrate(spec, u0, rc))
    except Exception as err:  # noqa: BLE001 - re-raised by the parent with its type
        result = (False, err)
    conn.send(result)


def _run_chunks(chunks, u0: Field, rc: RunConfig) -> list[TimeSeries]:
    """Step chunk 0 here and each other chunk in a forked child; the series in chunk order.

    Process.start flushes sys.stdout and sys.stderr before it forks, so no
    child writes the parent's buffered output again.  Every child is joined
    before this returns or raises; on an error the others are terminated.
    """
    import multiprocessing  # here alone: its import would add to every short run's start-up

    ctx = multiprocessing.get_context("fork")
    procs = []
    try:
        for s, sub in chunks[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_step_chunk, args=(send, sub, Field(u0.grid, u0.values[s]), rc),
                               daemon=True)
            proc.start()
            procs.append((proc, recv))
            send.close()
        s, sub = chunks[0]
        parts = [_integrate(sub, Field(u0.grid, u0.values[s]), rc)]
        for proc, recv in procs:
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a chunk's process ended with exit code {proc.exitcode}, "
                                   "without its result") from None
            if not ok:
                raise value
            parts.append(value)
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            proc.join()
            recv.close()
    return parts
