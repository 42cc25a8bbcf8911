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

The ramps' erfc is a numpy port of Cephes erfc, the code scipy.special.erfc
runs, with its bits; so no probe loads scipy.  A radial ramp runs it once
per distinct grid radius (`Grid.distinct_radii`) and gathers the values.

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
from .spectral import PropagatorOverflowError, build_propagator, irfftn, rfftn, symbol
from .stepper import RunConfig, _too_large, run

__all__ = [
    "ProbeConstructionError",
    "Mollifier",
    "NEGATIVITY_THRESHOLD",
    "gaussian_ramp",
    "build_diffusion_probe",
    "build_transport_probe",
    "probe_grid",
    "lap3_at_origin",
    "axis_derivative_at_origin",
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


# Cephes ndtr.c erfc, the code scipy.special.erfc runs: its coefficients,
# highest degree first, in its Horner order.  The Q, S and U polynomials are
# monic, their leading 1 left out as in Cephes.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2


def _horner(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Cephes polevl, or p1evl for a monic polynomial."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc(a):
    """Complementary error function with the bits of scipy.special.erfc.

    Cephes: 1 - erf(a) for |a| < 1, else exp(-a^2) P(|a|)/Q(|a|) (R/S from
    |a| = 8 on), 2 minus that for a < 0, and exact 0 or 2 once -a^2 is below
    -MAXLOG.  The exp is libm's, through math.exp: numpy's own exp differs
    from it in the last bit on some arguments.
    """
    a = np.asarray(a, dtype=float)
    flat = a.reshape(-1)
    x = np.abs(flat)
    out = np.where(flat < 0.0, 2.0, 0.0)  # the underflowed values
    small = x < 1.0
    s = flat[small]
    z = s * s
    out[small] = 1.0 - s * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)
    with np.errstate(over="ignore"):  # -inf past |a| = 1.3e154 underflows like the rest
        z = -flat * flat
    live = ~small & ~(z < -_MAXLOG)  # NaN stays live and gives NaN
    x, z = x[live], z[live]
    y = np.fromiter(map(math.exp, z.tolist()), float, z.size)
    mid = x < 8.0
    p = np.where(mid, _horner(x, _ERFC_P), _horner(x, _ERFC_R))
    q = np.where(mid, _horner(x, _ERFC_Q, monic=True), _horner(x, _ERFC_S, monic=True))
    y = y * p / q
    out[live] = np.where(flat[live] < 0.0, 2.0 - y, y)
    return out.reshape(a.shape)[()]


def gaussian_ramp(r, center: float, sigma: float):
    """Smooth descent 1 -> 0 around center; 0/1 to 1e-13 beyond 5.2*sqrt(2)*sigma."""
    return 0.5 * _erfc((r - center) / (math.sqrt(2) * sigma))


def _radial_ramp(grid: Grid, center: float, sigma: float) -> np.ndarray:
    """`gaussian_ramp` of |x| on the grid, evaluated once per distinct radius."""
    radii, index, fold = grid.distinct_radii
    return gaussian_ramp(radii, center, sigma)[index][np.ix_(*(fold,) * grid.d)]


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

    arg = sum(grid.coord_mesh) / eps
    np.minimum(arg, 50.0, out=arg)
    formula = np.exp(arg, out=arg)
    np.subtract(2.0, formula, out=formula)
    # (chi * formula + (1 - chi)) * psi, in place: the same bits with two
    # fewer grid-sized temporaries
    chi = _radial_ramp(grid, r_pos, sigma_in)
    formula *= chi
    np.subtract(1.0, chi, out=chi)
    formula += chi
    formula *= _radial_ramp(grid, rho, sigma_out)
    return Field(grid, formula[np.newaxis])


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
    width = (mol.r0 + mol.r1) / 4.0
    transverse = sum(axes[i] ** 2 for i in range(grid.d) if i != axis)
    bump = np.exp(-0.5 * transverse / width**2) if grid.d > 1 else 1.0
    formula = bump * np.exp(np.clip(-sign * axes[axis] / eps, -700.0, 700.0))
    formula *= _radial_ramp(grid, 0.5 * (mol.r0 + mol.r1), (mol.r1 - mol.r0) / (2.0 * RAMP_ANCHOR))
    return Field(grid, formula[np.newaxis])


def _at_origin(u: Field, multiplier: np.ndarray) -> float:
    """A one-component probe times a half-spectrum multiplier, read at the origin sample."""
    grid = u.grid
    values = irfftn(multiplier * rfftn(u.values[0], grid.d), grid.n, grid.d)
    return float(values[grid.origin_index])


def lap3_at_origin(u: Field) -> float:
    """Triple Laplacian of a one-component probe evaluated at the origin sample."""
    return _at_origin(u, -u.grid.half_k_sixth)


def axis_derivative_at_origin(u: Field, axis: int) -> float:
    """First derivative of a one-component probe along one axis at the origin sample."""
    return _at_origin(u, 1j * u.grid.half_deriv_mesh[axis])


# An experiment's rate at the origin stays on numpy.fft's full complex
# layout.  The d=2, eps=1 dilation rate sits on the |xi|^6 roundoff floor,
# and the half spectrum moves it by 2e-4 relative (n=256), past the
# benchmark sweep's 1e-8 references.  Moving it waits until every dilation
# point is checked against its exact value (ROADMAP items 2 and 3).


def _rate_entry(spec: SystemSpec, grid: Grid, k: int, j: int) -> np.ndarray | None:
    """Entry M[k, j] of the full-layout symbol, a copy of its row k's; None for a diagonal row."""
    row = symbol(spec, grid.k_sixth, grid.deriv_mesh, row=k)
    # (1, N, *mesh) is a coupled row, (1, *mesh) a diagonal one
    return row[0, j].copy() if row.ndim > grid.d + 1 else None


def _rate_at_origin(
    spec: SystemSpec, m_kj: np.ndarray | None, probe: Field, k: int, j: int
) -> float:
    """Component k of the right-hand side at t = 0 at the origin sample, bit for bit.

    That is D lap^3 u0 + sum_i T[i] d_i u0 - F(u0) formed on the full
    complex layout (`initial_rate_field` in tests/oracles.py) and read at
    the origin.  The initial data u0 hold `probe` in component j and +0.0
    everywhere else.
    `m_kj` is `_rate_entry(spec, grid, k, j)`.  The other components'
    spectra are +0.0, and adding the signed zeros of their products leaves
    every nonzero entry as it is, so a coupled row's linear part is its
    entry j times the probe's spectrum; a diagonal row reads component k
    alone, which is zero, and gives 0.0.  The inverse runs last axis first,
    as ifftn does, keeping the origin of each transformed axis: the same
    lines, each transformed alone, give the same bits (README "Numerical
    notes").
    """
    grid = probe.grid
    lin = 0.0
    if m_kj is not None:
        line = m_kj * np.fft.fftn(probe.values[0])
        for _ in range(grid.d):
            line = np.fft.ifft(line)[..., grid.n // 2]
        lin = line.real
    # the reaction is elementwise, so evaluating it at the origin sample alone keeps its bits
    at_origin = np.zeros((spec.ncomp, 1))
    at_origin[j, 0] = probe.values[(0,) + grid.origin_index]
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

    Probes default to the diffusion probe.
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

    def probe(self, grid: Grid, eps: float) -> Field:
        """The eps-dilated probe that component j holds."""
        # small r0: the dilated eps datapoints need the widest inner ramp available
        base = Mollifier(0.05 * LN2 / grid.d, 1.3 if grid.d == 1 else 0.9)
        return build_diffusion_probe(grid, eps, base.scaled(eps))

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

    def probe(self, grid: Grid, eps: float) -> Field:
        sign = 1 if self.gamma > 0 else -1
        return build_transport_probe(grid, self.axis, sign, eps)


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
    eps values whose probe, rate or step fails are dropped and noted.

    The step has the bits of `stepper.run` with dt = t_end = t_probe,
    computed for component k alone: k starts at zero, so after the step it
    is irfftn(P[k, j] * rfftn(u_j)) with P = exp(t_probe * M) on the half
    spectrum, one propagator for every eps.  Component j follows its own
    diagonal flow and cannot blow up, so the blow-up check reads k only.
    """
    spec = kind.system(grid.d)
    if t_probe is None:
        t_probe = default_t_probe(spec, grid)
    if not (math.isfinite(t_probe) and t_probe > 0):
        raise ConfigError(f"t_probe must be finite and > 0, got {t_probe}")
    k, j = kind.k, kind.j
    # a coupling near the largest double overflows the symbol entry and the
    # rate; each eps whose rate is not finite is dropped below with its value
    with np.errstate(over="ignore", invalid="ignore"):
        m_kj = _rate_entry(spec, grid, k, j)
    plane = None  # built inside the try, so an overflow drops every eps with its message

    kept_eps, rates, mins, dropped = [], [], [], []
    for eps in eps_list:
        try:
            probe = kind.probe(grid, eps)
            with np.errstate(over="ignore", invalid="ignore"):
                rate_origin = _rate_at_origin(spec, m_kj, probe, k, j)
            if not math.isfinite(rate_origin):
                dropped.append((float(eps), f"initial rate at the origin is {rate_origin}"))
                continue
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
