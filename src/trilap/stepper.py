"""Time integration of the sixth-order reaction-diffusion-transport system.

Exactly linear reactions F = L u (Reaction.linear_matrix: zero, and
polynomials of degree-1 terms only, the config's "linear" spelling among
them) are advanced exactly: one step is the
per-mode exponential of the full symbol with L folded in, so the only error
is roundoff.  Others use integrating-factor RK4 on v = exp(-t*M) u_hat
(Kassam & Trefethen, SIAM J. Sci. Comput. 26(4), 2005).  It needs only the
half-step factor E2 = exp(dt/2 M), since E = exp(dt M) = E2 E2:

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DimensionMismatchError, Field, Grid, SystemSpec
from .spectral import build_propagator, irfftn, rfftn

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
    not depend on the output stride.
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
    dt = rc.dt

    def to_values(c: np.ndarray) -> np.ndarray:
        return irfftn(c, grid.n, grid.d)

    coeffs = rfftn(u0.values, grid.d)
    if spec.reaction.linear_matrix(spec.ncomp) is not None:
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
    last_values, last_t = u0.values, 0.0
    blown, blow_step = False, None

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
