"""Explicit probe data, scaling experiments and the ODE reduction cross-check.

The structural audit in `criterion` is backed here by constructive
demonstrations: initial data with one component pinned to zero and a
carefully shaped probe in another component makes the pinned component's
initial rate at the origin strictly negative whenever a forbidden coupling
is present, and the rate magnitude scales as a power of the probe dilation
parameter eps:

    off-diagonal diffusion coupling a:   rate ~ -a * d^3 / eps^6
    off-diagonal transport coupling g:   rate ~ -|g| / eps
    boundary-sign-violating reaction:    rate = O(1), no eps dependence

The diffusion probe equals 2 - exp(sum_k x_k / eps) near the origin (its
triple Laplacian there is exactly -d^3 / eps^6), is blended onto a
nonnegative plateau and decays to zero by the outer mollifier radius.  The
transport probe is Q(x_perp) * exp(-sign * x_axis / eps) with a transverse
Gaussian Q, cut off the same way.  Dilating a probe scales both the
formula argument and the mollifier radii by eps.

Blend quality is the crux: the sixth-order symbol amplifies spectral tails
by |xi|^6, so classical exp(-1/t) bump transitions (whose Fourier tails
decay only root-exponentially) poison the computed triple Laplacian at any
affordable resolution.  The mollifier therefore uses erf ramps: they are
C-infinity, reach 0/1 to better than 1e-13 at the stated radii (exact zero
in floats a little further out), and their Gaussian spectral decay makes
the probe effectively band-limited.  Error in the probe identity is then
governed by two measurable scales: the ramp widths in wavenumber units
(truncation) and |xi_max|^6 * machine-eps (a roundoff floor that grows
with resolution at fixed box, which is why refinement studies widen the
box and radii together with n).

Probes are supported inside the periodic box to machine precision;
experiments certify negativity on the discrete grid, the checkable shadow
of the almost-everywhere statement on R^d.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    ConfigError,
    Field,
    Grid,
    PolynomialReaction,
    Reaction,
    SystemSpec,
    ZeroReaction,
)
from .spectral import PropagatorOverflowError, apply_modes, build_propagator, irfftn, rfftn, symbol
from .stepper import RunConfig, _too_large, run

__all__ = [
    "ProbeConstructionError",
    "Mollifier",
    "NEGATIVITY_THRESHOLD",
    "gaussian_ramp",
    "build_diffusion_probe",
    "build_transport_probe",
    "diffusion_probe_mollifier",
    "transport_probe_mollifier",
    "probe_grid",
    "lap3_at_origin",
    "axis_derivative_at_origin",
    "initial_rate_field",
    "DiffusionViolation",
    "TransportViolation",
    "ReactionViolation",
    "ViolationReport",
    "run_violation_experiment",
    "fit_power_law",
    "rk4_ode",
    "OdeComparison",
    "ode_reduction_check",
]

LN2 = math.log(2.0)
NEGATIVITY_THRESHOLD = -1e-8

# erf ramps anchor their endpoints at z = RAMP_ANCHOR/sqrt(2) standard
# deviations: the ramp is within 1.1e-13 of 0/1 beyond the stated radii
RAMP_ANCHOR = 7.35


class ProbeConstructionError(ValueError):
    """Requested probe would violate its constraints (sign, radii, range)."""


@dataclass(frozen=True)
class Mollifier:
    """Blend radii: formula kept inside r0, support ends at r1.

    "Kept" and "ends" hold to 1.1e-13 at the radii themselves and tighten
    to exact floating-point 0/1 a few ramp widths further; erf ramps buy
    the Gaussian spectral decay the sixth-order symbol demands.
    """

    r0: float
    r1: float

    def __post_init__(self):
        if not (0 < self.r0 < self.r1):
            raise ProbeConstructionError(f"need 0 < r0 < r1, got r0={self.r0}, r1={self.r1}")

    def check_fits(self, grid: Grid) -> None:
        if self.r1 > grid.box / 2.0:
            raise ProbeConstructionError(
                f"outer radius {self.r1} does not fit in half the box {grid.box / 2.0}"
            )

    def scaled(self, s: float) -> "Mollifier":
        return Mollifier(self.r0 * s, self.r1 * s)


def gaussian_ramp(r, center: float, sigma: float):
    """Smooth descent 1 -> 0 around center; 0/1 to 1e-13 beyond 5.2*sqrt(2)*sigma."""
    from scipy.special import erfc  # here, so that importing trilap does not load scipy

    return 0.5 * erfc((r - center) / (math.sqrt(2) * sigma))


def diffusion_probe_mollifier(d: int, eps: float = 1.0) -> Mollifier:
    """Radii giving the diffusion probe clean blends on the default grids."""
    return Mollifier(0.15 * eps * LN2 / d, (1.3 if d == 1 else 0.9) * eps)


def transport_probe_mollifier(eps: float = 1.0) -> Mollifier:
    return Mollifier(0.35 * eps, 1.0 * eps)


def probe_grid(d: int, n: int | None = None, box: float | None = None) -> Grid:
    """Grid sized so the default eps=1 probes sit in the clean spectral window.

    n defaults per dimension; without a box, the default box is scaled with n.
    """
    n_default, box_default = {1: (256, 6.0), 2: (128, 2.2), 3: (128, 2.2)}[d]
    n = n_default if n is None else n
    if box is None:
        # keep |xi|_max fixed: the roundoff floor scales as |xi|^6
        box = box_default * n / n_default
    return Grid(d=d, n=n, box=box)


def build_diffusion_probe(grid: Grid, eps: float, mollifier: Mollifier | None = None) -> Field:
    """Single-component probe equal to 2 - exp(sum_k x_k / eps) near the origin.

    Nonnegative everywhere; the formula holds for |x| <= r0, blends across
    the sphere where the worst-direction formula value reaches zero
    (radius eps*ln2/sqrt(d)) onto a plateau of height 1, and an outer ramp
    ends the support at r1.  Requires r0 * d / eps <= ln 2 so the formula
    cannot go negative inside r0, and r0 strictly inside the blend sphere.
    The triple Laplacian at the origin is -d^3/eps^6.
    """
    if eps <= 0:
        raise ProbeConstructionError(f"eps must be positive, got {eps}")
    mol = mollifier if mollifier is not None else diffusion_probe_mollifier(grid.d, eps)
    mol.check_fits(grid)
    d = grid.d
    if mol.r0 * d / eps > LN2 * (1.0 + 1e-12):
        raise ProbeConstructionError(
            f"formula region would go negative: r0*d/eps = {mol.r0 * d / eps:.6g} > ln 2"
        )
    r_pos = eps * LN2 / math.sqrt(d)
    sigma_in = (r_pos - mol.r0) / RAMP_ANCHOR
    if sigma_in <= 0:
        raise ProbeConstructionError(
            f"no room to blend: r0 = {mol.r0:.6g} reaches the formula's zero "
            f"sphere at {r_pos:.6g}; shrink r0 or increase eps"
        )
    rho = 0.5 * (mol.r0 + mol.r1)
    sigma_out = (mol.r1 - mol.r0) / (2.0 * RAMP_ANCHOR)

    # worst direction is the diagonal: verify the blend profile stays >= 0
    # out to where the outer ramp has died
    rr = np.linspace(0.0, mol.r1 + 8.0 * sigma_out, 4096)
    worst = 2.0 - np.exp(np.minimum(math.sqrt(d) * rr / eps, 50.0))
    chi_r = gaussian_ramp(rr, r_pos, sigma_in)
    if np.min(chi_r * worst + (1.0 - chi_r)) < 0.0:
        raise ProbeConstructionError(
            "blend dips negative along the diagonal; widen the gap between "
            "r0 and the formula's zero sphere"
        )

    axes = grid.coord_mesh
    r = np.sqrt(sum(x * x for x in axes))
    arg = sum(axes) / eps
    np.minimum(arg, 50.0, out=arg)
    formula = np.exp(arg, out=arg)
    np.subtract(2.0, formula, out=formula)
    chi = gaussian_ramp(r, r_pos, sigma_in)
    psi = gaussian_ramp(r, rho, sigma_out)
    values = (chi * formula + (1.0 - chi)) * psi
    return Field(grid, values[np.newaxis])


def build_transport_probe(
    grid: Grid, axis: int, sign: int, eps: float, mollifier: Mollifier | None = None
) -> Field:
    """Single-component probe Q(x_perp) * exp(-sign * x_axis / eps) near the origin.

    Q is a transverse Gaussian bump of width (r0 + r1)/4 (constant for d=1),
    positive and independent of the probed axis; an outer ramp ends the
    support at r1.  The axis derivative at the origin is -sign/eps.
    """
    if eps <= 0:
        raise ProbeConstructionError(f"eps must be positive, got {eps}")
    if not 0 <= axis < grid.d:
        raise ProbeConstructionError(f"axis {axis} out of range for d={grid.d}")
    if sign not in (-1, 1):
        raise ProbeConstructionError(f"sign must be +1 or -1, got {sign}")
    mol = mollifier if mollifier is not None else transport_probe_mollifier(eps)
    mol.check_fits(grid)
    if mol.r1 / eps > 690.0:
        raise ProbeConstructionError(
            f"exp(r1/eps) = exp({mol.r1 / eps:.3g}) would overflow; widen eps or shrink r1"
        )
    axes = grid.coord_mesh
    r = np.sqrt(sum(x * x for x in axes))
    width = (mol.r0 + mol.r1) / 4.0
    transverse = sum(axes[i] ** 2 for i in range(grid.d) if i != axis)
    bump = np.exp(-0.5 * transverse / width**2) if grid.d > 1 else 1.0
    formula = bump * np.exp(np.clip(-sign * axes[axis] / eps, -700.0, 700.0))
    psi = gaussian_ramp(r, 0.5 * (mol.r0 + mol.r1), (mol.r1 - mol.r0) / (2.0 * RAMP_ANCHOR))
    return Field(grid, (psi * formula)[np.newaxis])


# The probes' derivative reads keep numpy.fft.rfftn, whose forward complex
# passes run in reverse order (not spectral.rfftn's), so that `trilap probe
# --d 3` keeps its output bits; merging the two paths moves lap3_at_origin by
# 3.4e-10 relative at eps=1.  That waits for ROADMAP item 3.


def _at_origin(u: Field, component: int, multiplier: np.ndarray) -> float:
    """One component times a half-spectrum multiplier, read at the origin sample."""
    grid = u.grid
    axes = tuple(range(grid.d))
    coeffs = multiplier * np.fft.rfftn(u.values[component], axes=axes)
    return float(np.fft.irfftn(coeffs, s=grid.shape, axes=axes)[grid.origin_index])


def lap3_at_origin(u: Field, component: int = 0) -> float:
    """Triple Laplacian of one component evaluated at the origin sample."""
    return _at_origin(u, component, -u.grid.half_k_sixth)


def axis_derivative_at_origin(u: Field, axis: int, component: int = 0) -> float:
    """First derivative along one axis at the origin sample, spectrally."""
    return _at_origin(u, component, 1j * u.grid.half_deriv_mesh[axis])


# An experiment's rate at the origin stays on numpy.fft's full complex
# layout.  The d=2, eps=1 dilation rate sits on the |xi|^6 roundoff floor,
# and the half spectrum moves it by 2e-4 relative (n=256), past the
# benchmark sweep's 1e-8 references.  Moving it waits until every dilation
# point is checked against its exact value (ROADMAP items 2 and 3).


def _rate_symbol(spec: SystemSpec, grid: Grid, row=None) -> np.ndarray:
    return symbol(spec, grid.k_sixth, grid.deriv_mesh, row=row)


def initial_rate_field(spec: SystemSpec, u0: Field) -> Field:
    """Right-hand side at t = 0: D lap^3 u0 + sum_i T[i] d_i u0 - F(u0)."""
    grid = u0.grid
    axes = tuple(range(1, grid.d + 1))
    m = _rate_symbol(spec, grid)
    lin = np.fft.ifftn(apply_modes(m, np.fft.fftn(u0.values, axes=axes)), axes=axes).real
    return Field(grid, lin - spec.reaction.evaluate(u0.values))


def _rate_at_origin(spec: SystemSpec, m: np.ndarray, u0: Field, k: int) -> float:
    """Component k of `initial_rate_field` at the origin sample, bit for bit.

    `m` is row k of the symbol, `_rate_symbol(spec, grid, k)`.  Components
    whose bits are all +0.0 are skipped, in the transform and in the row
    product: their spectra are +0.0, and adding the signed zeros of their
    products leaves every nonzero entry as it is.  The rest of row k of
    `apply_modes` is formed in its order.  The inverse runs last axis
    first, as ifftn does, keeping the origin of each transformed axis: the
    same lines, each transformed alone, give the same bits (README
    "Numerical notes").  With nothing left, the linear part is 0.0 and no
    inverse runs.
    """
    grid = u0.grid
    axes = tuple(range(grid.d))
    diagonal = m.ndim == grid.d + 1  # (1, *mesh) reads component k only; (1, N, *mesh) all
    live = [c for c in ((k,) if diagonal else range(spec.ncomp))
            if u0.values[c].view(np.uint64).any()]
    lin = 0.0
    if live:
        terms = ((m[0] if diagonal else m[0, c]) * np.fft.fftn(u0.values[c], axes=axes)
                 for c in live)
        line = next(terms)
        for term in terms:
            line += term
        for _ in axes:
            line = np.fft.ifft(line)[..., grid.n // 2]
        lin = line.real
    # the reaction is elementwise, so evaluating it at the origin sample alone keeps its bits
    at_origin = u0.values[(slice(None),) + grid.origin_index][:, np.newaxis]
    return float(lin - spec.reaction.evaluate(at_origin)[k, 0])


# ---------------------------------------------------------------------------
# violation experiments


def _identity_system(d: int, ncomp: int, reaction: Reaction = ZeroReaction(),
                     diffusion=None, transport=None) -> SystemSpec:
    """SystemSpec with identity diffusion and zero transport unless given."""
    if diffusion is None:
        diffusion = np.eye(ncomp)
    if transport is None:
        transport = tuple(np.zeros((ncomp, ncomp)) for _ in range(d))
    return SystemSpec(d, ncomp, diffusion, transport, reaction)


@dataclass(frozen=True)
class _ViolationKind:
    """One forbidden coupling from component j into component k (0-based).

    The repaired system drops the coupling: identity diffusion, zero
    transport, zero reaction.  Probes default to the diffusion probe.
    """

    k: int = 0
    j: int = 1

    def __post_init__(self):
        if self.k == self.j or min(self.k, self.j) < 0:
            raise ConfigError(
                f"need distinct component indices >= 0, got k={self.k}, j={self.j}"
            )

    @property
    def ncomp(self) -> int:
        return max(self.k, self.j) + 1

    def repaired_system(self, d: int) -> SystemSpec:
        return _identity_system(d, self.ncomp)

    def probe(self, grid: Grid, eps: float, mollifier: Mollifier) -> Field:
        return build_diffusion_probe(grid, eps, mollifier)

    def base_mollifier(self, d: int) -> Mollifier:
        # small r0: the dilated eps datapoints need the widest inner ramp available
        return Mollifier(0.05 * LN2 / d, 1.3 if d == 1 else 0.9)

    def params(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DiffusionViolation(_ViolationKind):
    """Off-diagonal diffusion coupling a = D[k, j] > 0 (premise-compatible)."""

    a: float = 1.0

    label = "diffusion"
    expected_slope = -6.0

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.a) and self.a > 0):
            raise ConfigError(
                f"need a finite a > 0 so the coupling is premise-compatible, got a={self.a}"
            )

    def system(self, d: int) -> SystemSpec:
        diff = np.eye(self.ncomp)
        diff[self.k, self.j] = self.a
        return _identity_system(d, self.ncomp, diffusion=diff)


@dataclass(frozen=True)
class TransportViolation(_ViolationKind):
    """Off-diagonal transport coupling g = T[axis][k, j] != 0."""

    axis: int = 0
    gamma: float = 1.0

    label = "transport"
    expected_slope = -1.0

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.gamma) and self.gamma != 0):
            raise ConfigError(f"need a finite nonzero coupling, got gamma={self.gamma}")

    def system(self, d: int) -> SystemSpec:
        if not 0 <= self.axis < d:
            raise ConfigError(f"transport axis {self.axis} out of range for d={d}")
        gammas = [np.zeros((self.ncomp,) * 2) for _ in range(d)]
        gammas[self.axis][self.k, self.j] = self.gamma
        return _identity_system(d, self.ncomp, transport=tuple(gammas))

    def probe(self, grid: Grid, eps: float, mollifier: Mollifier) -> Field:
        sign = 1 if self.gamma > 0 else -1
        return build_transport_probe(grid, self.axis, sign, eps, mollifier)

    def base_mollifier(self, d: int) -> Mollifier:
        return transport_probe_mollifier()


@dataclass(frozen=True)
class ReactionViolation(_ViolationKind):
    """Boundary-sign-violating reaction F_k(u) = u_j on the face u_k = 0."""

    label = "reaction"
    expected_slope = 0.0

    def system(self, d: int) -> SystemSpec:
        face_term = ((1.0, tuple(int(c == self.j) for c in range(self.ncomp))),)
        terms = tuple(face_term if c == self.k else () for c in range(self.ncomp))
        return _identity_system(d, self.ncomp, PolynomialReaction(terms))


@dataclass(frozen=True)
class ViolationReport:
    """Per-eps rates and minima plus the fitted power law."""

    kind: str
    params: dict
    eps: tuple[float, ...]
    initial_rate_at_origin: tuple[float, ...]
    min_after_t_probe: tuple[float, ...]
    fitted_slope: float | None
    negativity_observed: bool
    t_probe: float
    dropped: tuple[tuple[float, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "eps": list(self.eps),
            "initial_rate_at_origin": list(self.initial_rate_at_origin),
            "min_after_t_probe": list(self.min_after_t_probe),
            "fitted_slope": self.fitted_slope,
            "negativity_observed": self.negativity_observed,
            "t_probe": self.t_probe,
            "dropped": [{"eps": e, "reason": r} for e, r in self.dropped],
        }


def fit_power_law(eps: tuple[float, ...], magnitudes: tuple[float, ...]) -> float | None:
    """Least-squares slope of log|magnitude| against log eps; None if underdetermined."""
    pairs = [(e, m) for e, m in zip(eps, magnitudes) if m != 0.0 and np.isfinite(m)]
    if len({e for e, _ in pairs}) < 2:
        return None
    le = np.log([e for e, _ in pairs])
    lm = np.log([abs(m) for _, m in pairs])
    return float(np.polyfit(le, lm, 1)[0])


def default_t_probe(spec: SystemSpec, grid: Grid) -> float:
    """Small enough that the sign of the initial rate dominates the evolution."""
    return 1e-4 * (grid.box / (2.0 * math.pi)) ** 6 / np.linalg.norm(spec.diffusion, 2)


def run_violation_experiment(
    kind,
    eps_list,
    grid: Grid,
    t_probe: float | None = None,
) -> ViolationReport:
    """Probe a structurally violating system across a list of dilation scales.

    For each eps: place the eps-dilated probe in component j (component k
    identically zero), record the initial rate of component k at the
    origin, take one exact linear step of length t_probe and record the
    minimum of component k.  The fitted log-log slope of |rate| against eps
    exposes the 1/eps^6 (diffusion) or 1/eps (transport) amplification;
    eps values whose probe or step fails are dropped and noted.

    The step has the bits of `stepper.run` with dt = t_end = t_probe,
    computed for component k alone: k starts at zero, so after the step it
    is irfftn(P[k, j] * rfftn(u_j)) with P = exp(t_probe * M) on the half
    spectrum, one propagator for every eps.  Component j follows its own
    diagonal flow and cannot blow up, so the blow-up check reads k only.
    """
    # the probes' erfc loads scipy; loading it here, before any grid-sized
    # array is live, keeps the import's heap off the experiment's peak RSS
    import scipy.special  # noqa: F401

    spec = kind.system(grid.d)
    base = kind.base_mollifier(grid.d)
    if t_probe is None:
        t_probe = default_t_probe(spec, grid)
    if not (math.isfinite(t_probe) and t_probe > 0):
        raise ConfigError(f"t_probe must be finite and > 0, got {t_probe}")
    k, j = kind.k, kind.j
    m = _rate_symbol(spec, grid, k)
    plane = None  # built inside the try, so an overflow drops every eps with its message

    kept_eps, rates, mins, dropped = [], [], [], []
    for eps in eps_list:
        try:
            probe = kind.probe(grid, eps, base.scaled(eps))
            u0_vals = np.zeros((spec.ncomp,) + grid.shape)
            u0_vals[j] = probe.values[0]
            rate_origin = _rate_at_origin(spec, m, Field(grid, u0_vals), k)
            if plane is None:
                prop = build_propagator(spec, grid, t_probe)
                if prop.decoupled:
                    raise ValueError(f"{kind.label} system is decoupled: component k cannot move")
                plane, prop = prop.exps[k, j].copy(), None  # the step reads P[k, j] alone
            vals = irfftn(plane * rfftn(probe.values[0], grid.d), grid.n, grid.d)
            if _too_large(vals):
                dropped.append((float(eps), "blow-up at step 1"))
                continue
            kept_eps.append(float(eps))
            rates.append(rate_origin)
            mins.append(float(vals.min()))
        except (PropagatorOverflowError, ProbeConstructionError) as err:
            dropped.append((float(eps), str(err)))
    return ViolationReport(
        kind=kind.label,
        params=kind.params(),
        eps=tuple(kept_eps),
        initial_rate_at_origin=tuple(rates),
        min_after_t_probe=tuple(mins),
        fitted_slope=fit_power_law(tuple(kept_eps), tuple(rates)),
        negativity_observed=any(m < NEGATIVITY_THRESHOLD for m in mins),
        t_probe=float(t_probe),
        dropped=tuple(dropped),
    )


# ---------------------------------------------------------------------------
# ODE reduction


def rk4_ode(reaction: Reaction, y0: np.ndarray, t_end: float, dt: float) -> np.ndarray:
    """Classical fixed-step RK4 on u' = -F(u); returns states at all steps.

    Standalone reference solver, independent of the spectral machinery.
    Stops early (truncated output) if the state leaves floating-point range.
    """
    steps = int(round(t_end / dt))
    y = np.asarray(y0, dtype=float)
    out = [y]
    for _ in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = -reaction.evaluate(y)
            k2 = -reaction.evaluate(y + 0.5 * dt * k1)
            k3 = -reaction.evaluate(y + 0.5 * dt * k2)
            k4 = -reaction.evaluate(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            break
        out.append(y)
    return np.asarray(out)


@dataclass(frozen=True)
class OdeComparison:
    """PDE-from-constant-data run against the homogeneous ODE reference."""

    times: np.ndarray
    pde_values: np.ndarray          # (n_times, ncomp) minima of the constant field
    ode_values: np.ndarray          # (n_times, ncomp)
    max_deviation: float
    pde_first_negative: float | None
    ode_first_negative: float | None
    blown_up: bool = False

    @property
    def negativity_times_agree(self) -> bool:
        """First-negativity times match within one recording stride."""
        a, b = self.pde_first_negative, self.ode_first_negative
        if a is None or b is None:
            return a is None and b is None
        stride = float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0
        return abs(a - b) <= stride * (1.0 + 1e-9)

    def to_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "pde_first_negative": self.pde_first_negative,
            "ode_first_negative": self.ode_first_negative,
            "negativity_times_agree": self.negativity_times_agree,
            "blown_up": self.blown_up,
        }


def ode_reduction_check(
    reaction: Reaction,
    u0_const,
    t_end: float,
    dt: float,
) -> OdeComparison:
    """Spatially constant PDE run versus the standalone u' = -F(u) solve.

    The spatially homogeneous case is exactly the ODE, so the necessary
    condition carries over; deviations beyond roundoff indicate a stepper
    defect rather than modelling error.  The reference is `rk4_ode`, or
    exp(-t L) y0 when F = L u exactly (Reaction.linear_matrix), as the PDE step is.
    """
    y0 = np.asarray(u0_const, dtype=float)
    if y0.ndim != 1:
        raise ConfigError("u0_const must be a flat component vector")
    if np.any(y0 < 0):
        raise ConfigError("u0_const must be componentwise nonnegative")
    ncomp = y0.shape[0]
    grid = Grid(d=1, n=8, box=32.0)
    spec = _identity_system(grid.d, ncomp, reaction)
    u0 = Field(grid, np.broadcast_to(y0.reshape((ncomp,) + (1,) * grid.d), (ncomp,) + grid.shape))
    ts = run(spec, u0, RunConfig(t_end=t_end, dt=dt, output_stride=1))
    lin = reaction.linear_matrix(ncomp)
    if lin is None:
        ode = rk4_ode(reaction, y0, t_end, dt)
    else:
        from scipy.linalg import expm  # here, so that importing trilap does not load scipy
        ode = expm(-ts.times[:, None, None] * lin) @ y0

    n_common = min(len(ts.times), ode.shape[0])
    pde_vals = ts.diagnostics[:n_common, :, 0]
    ode_vals = ode[:n_common]
    times = ts.times[:n_common]
    max_dev = float(np.abs(pde_vals - ode_vals).max()) if n_common else float("nan")

    def first_neg(values: np.ndarray) -> float | None:
        rows = np.nonzero((values < 0).any(axis=1))[0]
        return float(times[rows[0]]) if rows.size else None

    return OdeComparison(
        times=times,
        pde_values=pde_vals,
        ode_values=ode_vals,
        max_deviation=max_dev,
        pde_first_negative=first_neg(pde_vals),
        ode_first_negative=first_neg(ode_vals),
        blown_up=ts.blown_up or ode.shape[0] < len(ts.times),
    )
