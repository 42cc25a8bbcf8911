"""Time integration of the sixth-order reaction-diffusion-transport system.

Zero and linear reactions are advanced exactly: one step is the per-mode
matrix exponential of the full (constant-coefficient) symbol, so the only
error is roundoff.  Polynomial reactions use the integrating-factor
classical RK4 scheme on the transformed variable v = exp(-t*M) u_hat:

    N1 = N(c)                       N(c) = -fft(F(ifft(c))), dealiased
    u2 = E2 (c + dt/2 N1)           E  = exp(dt M),  E2 = exp(dt/2 M)
    u3 = E2 c + dt/2 N2
    u4 = E  c + dt E2 N3
    c' = E c + dt/6 (E N1 + 2 E2 (N2 + N3) + N4)

which reduces to classical RK4 on u' = -F(u) when the symbol vanishes
(spatially homogeneous data).  Reaction products are dealiased with the
2/3 rule by default.  An ETDRK4 variant would trade the exactness of the
linear substeps for one fewer nonlinear stage; exactness wins here.

Fields are real, so the state is carried as its half spectrum
(scipy.fft.rfftn / irfftn, Grid.half_shape modes) and every propagator is
built on that layout.  Each state is transformed back once: the samples of
step n serve its blow-up check, its record and stage 1 of step n+1, so an
n-step IF-RK4 run makes 4n+1 forward and 4n+1 inverse transforms.
Audit-passing systems (diagonal D, T[i] and L) propagate elementwise, N
scalar exponentials per mode; coupled systems apply an N x N matrix per
mode.  Repeated runs of one spec on one grid and step reuse its propagator
tables (at most the two one run needs are kept, and they go with the spec).

State with any |value| > 1e12 or a non-finite entry aborts the run and
returns the series recorded before it, flagged with the step where it
happened, whatever the output stride: every state is transformed back and
checked after its step.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DimensionMismatchError, Field, Grid, SystemSpec
from .spectral import ModePropagator, build_propagator

__all__ = [
    "RunConfig",
    "TimeSeries",
    "ReactionOverflowError",
    "BLOWUP_THRESHOLD",
    "suggest_dt",
    "run",
]

BLOWUP_THRESHOLD = 1e12

# exp argument cap: keep max|xi|^6 * dt * ||D||_2 below this so the
# propagator entries stay inside floating-point range with margin
EXP_RANGE_BUDGET = 700.0

CSV_HEADER = "t,component,min,argmin_index,mass,l2norm"

# propagator tables per live spec, keyed (grid, dt); the entries are
# dropped with their spec, and an IF-RK4 run needs two tables
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_TABLES_PER_SPEC = 2
_TABLES_LOCK = threading.Lock()


class ReactionOverflowError(ArithmeticError):
    """Pointwise reaction evaluation produced non-finite values."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite reaction evaluation at step {step}")


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
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)):
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
    (min, argmin flat index, mass, component L2 norm).
    """

    grid: Grid
    times: np.ndarray
    diagnostics: np.ndarray
    final_state: Field
    final_t: float
    blown_up: bool = False
    blowup_step: int | None = None

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
    floating-point range rather than accuracy; polynomial reactions may
    need a smaller dt for the RK4 stages.
    """
    if not 0 < t_end < math.inf:
        raise ConfigError(f"t_end must be positive and finite, got {t_end}")
    cap = EXP_RANGE_BUDGET / (grid.half_k_sixth.max() * np.linalg.norm(spec.diffusion, 2))
    steps = max(1, math.ceil(t_end / min(cap, t_end)))
    return t_end / steps


def _propagator(spec: SystemSpec, grid: Grid, dt: float) -> ModePropagator:
    """build_propagator, reusing the table of an identical earlier call on this spec."""
    key = (grid, dt)
    with _TABLES_LOCK:
        tables = _TABLES.setdefault(spec, {})
        if key not in tables:
            if len(tables) >= _TABLES_PER_SPEC:
                del tables[next(iter(tables))]
            tables[key] = build_propagator(spec, grid, dt)
        return tables[key]


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
    not depend on the output stride.
    """
    # imported here, not at module level, so that importing trilap (and the
    # CLI's audit) does not load scipy
    from scipy import fft

    grid = u0.grid
    if grid.d != spec.d:
        raise DimensionMismatchError(f"grid dimension {grid.d} != system dimension {spec.d}")
    if u0.ncomp != spec.ncomp:
        raise DimensionMismatchError(
            f"initial data has {u0.ncomp} components, system has {spec.ncomp}"
        )
    axes = tuple(range(1, grid.d + 1))
    dt = rc.dt

    def to_values(c: np.ndarray) -> np.ndarray:
        return fft.irfftn(c, s=grid.shape, axes=axes)

    coeffs = fft.rfftn(u0.values, axes=axes)
    if spec.reaction.kind in ("zero", "linear"):
        prop = _propagator(spec, grid, dt)
        values = None  # a linear step reads only the spectrum

        def advance(c: np.ndarray, values, step: int) -> np.ndarray:
            return prop.apply(c)

    else:
        full = _propagator(spec, grid, dt)
        half = _propagator(spec, grid, dt / 2.0)
        mask = grid.half_dealias_mask if rc.dealias else None
        react = spec.reaction

        def nonlinear(values: np.ndarray, step: int) -> np.ndarray:
            f = react.evaluate(values)
            if not np.all(np.isfinite(f)):
                raise ReactionOverflowError(step)
            fc = fft.rfftn(-f, axes=axes)
            if mask is not None:
                fc *= mask
            return fc

        def advance(c: np.ndarray, values: np.ndarray, step: int) -> np.ndarray:
            # stage 1 reads the values of c that the previous step computed; the
            # stage states u2, u3, u4 stay unnamed so each is freed once transformed
            n1 = nonlinear(values, step)
            n2 = nonlinear(to_values(half.apply(c + (dt / 2.0) * n1)), step)
            n3 = nonlinear(to_values(half.apply(c) + (dt / 2.0) * n2), step)
            ec = full.apply(c)
            n4 = nonlinear(to_values(ec + dt * half.apply(n3)), step)
            return ec + (dt / 6.0) * (full.apply(n1) + 2.0 * half.apply(n2 + n3) + n4)

        values = to_values(coeffs)

    times = [0.0]
    rows = [_diagnostics_row(u0.values, grid)]
    last_values, last_t = u0.values, 0.0
    blown, blow_step = False, None

    for step in range(1, rc.n_steps + 1):
        try:
            coeffs = advance(coeffs, values, step)
        except ReactionOverflowError:
            blown, blow_step = True, step
            break
        # transformed after advance returns, once its stage arrays are freed
        values = to_values(coeffs)
        if _too_large(values):
            blown, blow_step = True, step
            break
        if step % rc.output_stride == 0 or step == rc.n_steps:
            t = step * dt
            times.append(t)
            rows.append(_diagnostics_row(values, grid))
            last_values, last_t = values, t

    return TimeSeries(
        grid=grid,
        times=np.asarray(times),
        diagnostics=np.asarray(rows),
        final_state=Field(grid, last_values),
        final_t=last_t,
        blown_up=blown,
        blowup_step=blow_step,
    )
