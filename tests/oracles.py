"""Test-only reference solutions, independent of the library's solver path."""

import math

import numpy as np

from trilap import Field, SystemSpec, spectral
from trilap.criterion import _offdiag


def mode_exponential_step(spec, grid, values, dt):
    """One exact linear step via per-mode eigendecomposition, L folded in if linear.

    Rebuilds the symbol from first principles (numpy fftfreq, Nyquist
    zeroed for first derivatives) and exponentiates by diagonalisation,
    sharing no code with the scaling-and-squaring propagator it checks.
    """
    n, d, ncomp = grid.n, grid.d, values.shape[0]
    k1 = 2 * np.pi * np.fft.fftfreq(n, d=grid.box / n)
    kd = k1.copy()
    kd[n // 2] = 0.0
    mesh = np.meshgrid(*(k1,) * d, indexing="ij")
    dmesh = np.meshgrid(*(kd,) * d, indexing="ij")
    k6 = sum(m**2 for m in mesh) ** 3
    symbol = -k6.reshape(-1, 1, 1) * np.asarray(spec.diffusion)[None].astype(complex)
    for dm, g in zip(dmesh, spec.transport):
        symbol = symbol + 1j * dm.reshape(-1, 1, 1) * np.asarray(g)[None]
    lin = spec.reaction.linear_matrix()
    if lin is not None:
        symbol = symbol - np.asarray(lin)[None]
    w, v = np.linalg.eig(dt * symbol)
    expd = v @ (np.exp(w)[..., None] * np.linalg.inv(v))
    axes = tuple(range(1, d + 1))
    coeffs = np.fft.fftn(values, axes=axes).reshape(ncomp, -1)
    out = np.einsum("mij,jm->im", expd, coeffs)
    return np.fft.ifftn(out.reshape(values.shape), axes=axes).real


def apply_modes_components_innermost(table, coeffs):
    """A coupled table applied as first written: mode-major table, components innermost.

    `table` holds one N x N matrix per mode, shape (*mesh, N, N).  Output
    component i is formed as table[..., i, 0] * c_0, then += table[..., i, j]
    * c_j for each later j, into a (*mesh, N) array whose components are
    moved to the front at the end.
    """
    n = coeffs.shape[0]
    out = np.empty(coeffs.shape[1:] + (n,), dtype=np.result_type(table, coeffs))
    for i in range(n):
        np.multiply(table[..., i, 0], coeffs[0], out=out[..., i])
        for j in range(1, n):
            out[..., i] += table[..., i, j] * coeffs[j]
    return np.moveaxis(out, -1, 0)


def scalar_decay_solution(grid, values1, t):
    """Exact solution of u_t = lap^3 u for one component, per-mode decay."""
    n = grid.n
    k = 2 * np.pi * np.fft.fftfreq(n, d=grid.box / n)
    mesh = np.meshgrid(*(k,) * grid.d, indexing="ij")
    k6 = sum(m**2 for m in mesh) ** 3
    return np.fft.ifftn(np.exp(-k6 * t) * np.fft.fftn(values1)).real


def polynomial_reaction_full(reaction, values):
    """Polynomial reaction evaluated term by term from a full coefficient array.

    Each monomial starts as np.full(coeff) and multiplies values[l]**e for
    every nonzero exponent in component order, the straightforward reading
    of coeff * prod_l u_l**e_l.
    """
    out = np.zeros_like(values)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, comp in enumerate(reaction.terms):
            for coeff, expo in comp:
                term = np.full(values.shape[1:], coeff)
                for l, e in enumerate(expo):
                    if e:
                        term = term * values[l] ** e
                out[k] += term
    return out


def if_rk4_two_tables(spec, u0, rc):
    """Final samples of integrating-factor RK4 with both tables, E = exp(dt M) and E2 = exp(dt/2 M).

    The classical form, six table applications per step:
        u2 = E2 (c + dt/2 N1),  u3 = E2 c + dt/2 N2,  u4 = E c + dt E2 N3,
        c' = E c + dt/6 (E N1 + 2 E2 (N2 + N3) + N4),
    with N(c) = -rfftn(F(irfftn(c))), dealiased when rc.dealias is set.
    No blow-up check: the data must stay finite.
    """
    from scipy import fft

    from trilap import build_propagator

    grid, dt = u0.grid, rc.dt
    axes = tuple(range(1, grid.d + 1))
    full = build_propagator(spec, grid, dt)
    half = build_propagator(spec, grid, dt / 2.0)

    def nonlinear(c):
        fc = fft.rfftn(-spec.reaction.evaluate(fft.irfftn(c, s=grid.shape, axes=axes)), axes=axes)
        return fc * grid.half_dealias_mask if rc.dealias else fc

    c = fft.rfftn(u0.values, axes=axes)
    for _ in range(rc.n_steps):
        n1 = nonlinear(c)
        n2 = nonlinear(half.apply(c + (dt / 2.0) * n1))
        n3 = nonlinear(half.apply(c) + (dt / 2.0) * n2)
        ec = full.apply(c)
        n4 = nonlinear(ec + dt * half.apply(n3))
        c = ec + (dt / 6.0) * (full.apply(n1) + 2.0 * half.apply(n2 + n3) + n4)
    return fft.irfftn(c, s=grid.shape, axes=axes)


def face_points_loop(sampler, ncomp, k):
    """SignSampler.face_points as first written: one row per list entry, one draw per scale.

    The origin, then per free axis j the unit vector e_j and each scaled
    e_j, then per scale a uniform block with column k zeroed.
    """
    from trilap.criterion import MAGNITUDE_SCALES

    pts = [np.zeros(ncomp)]
    for j in range(ncomp):
        if j == k:
            continue
        e = np.zeros(ncomp)
        e[j] = 1.0
        pts.append(e)
        for scale in MAGNITUDE_SCALES:
            pts.append(scale * e)
    rng = np.random.default_rng((sampler.seed, k))
    for scale in MAGNITUDE_SCALES:
        block = rng.uniform(0.0, scale, size=(sampler.samples_per_component, ncomp))
        block[:, k] = 0.0
        pts.append(block)
    return np.vstack([np.atleast_2d(p) for p in pts])


def reaction_boundary_sign_flagged_loop(reaction, ncomp, sampler):
    """The boundary sign check with one witness indexed out per flagged sample.

    Samples come from `face_points_loop`; each flagged index i builds its
    site from pts[i] and its value from vals[i], in sample order.
    """
    from trilap.core import Violation

    out = []
    for k in range(ncomp):
        pts = face_points_loop(sampler, ncomp, k)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = reaction.evaluate(pts.T)[k]
        finite = np.isfinite(vals)
        for i in np.flatnonzero(~finite | (vals > 1e-12)):
            site = {"component": k, "sample": pts[i].tolist()}
            if finite[i]:
                out.append(Violation("reaction-sign", site, float(vals[i])))
            else:
                out.append(Violation("reaction-indeterminate", site, float("nan")))
    return out


def reaction_boundary_sign_per_sample(reaction, ncomp, sampler):
    """The boundary sign check with a witness built for every face sample.

    Visits each sample in order and keeps it when F_k is non-finite
    ("reaction-indeterminate", value NaN) or above 1e-12 ("reaction-sign").
    """
    from trilap.core import Violation

    out = []
    for k in range(ncomp):
        pts = sampler.face_points(ncomp, k)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = reaction.evaluate(pts.T)[k]
        for p, v in zip(pts, vals):
            site = {"component": k, "sample": [float(x) for x in p]}
            if not np.isfinite(v):
                out.append(Violation("reaction-indeterminate", site, float("nan")))
            elif v > 1e-12:
                out.append(Violation("reaction-sign", site, float(v)))
    return out


def matrix_exp_reference(ms):
    """Scaling and squaring with one BLAS product per matrix and a full squaring loop.

    The batched order-13 Pade exponential as first written: each product is
    a stacked `@` on (..., N, N), and the squaring loop re-masks the
    matrices with s > k on every pass and squares all of them.
    """
    from trilap.spectral import _PADE13, _THETA13

    ms = np.asarray(ms, dtype=complex)
    n = ms.shape[-1]
    shape = ms.shape
    ms = ms.reshape(-1, n, n)
    norm1 = np.abs(ms).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(np.maximum(norm1, 1e-300) / _THETA13))
    s = np.maximum(s, 0.0).astype(int)
    a = ms * (0.5**s)[..., None, None]

    eye = np.broadcast_to(np.eye(n, dtype=complex), a.shape)
    b = _PADE13
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (
            a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
            + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        )
        v = (
            a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        )
        r = np.linalg.solve(v - u, v + u)

        for k in range(int(s.max()) if s.size else 0):
            todo = s > k
            r[todo] = r[todo] @ r[todo]
    # exp(0) = I exactly; complex division in the Pade solve leaves eps-level dust
    r[norm1 == 0.0] = np.eye(n, dtype=complex)
    return r.reshape(shape)


def full_spectral_meshes(grid, half):
    """Grid's spectral meshes as first built: every one a full np.meshgrid array.

    Returns (|xi|^6, derivative meshes, dealiasing mask) on the full layout,
    or on the half spectrum (last axis cut to n//2 + 1) when `half` is set;
    the mask is only built for the half spectrum.
    """
    n, d = grid.n, grid.d

    def meshes(per_axis):
        last = per_axis[: n // 2 + 1] if half else per_axis
        return np.meshgrid(*(per_axis,) * (d - 1), last, indexing="ij")

    k6 = sum(m**2 for m in meshes(grid.wavenumbers)) ** 3
    deriv = tuple(meshes(grid.deriv_wavenumbers))
    m = np.abs(np.fft.fftfreq(n) * n)
    mask = np.logical_and.reduce(meshes(m < n / 3.0)) if half else None
    return k6, deriv, mask



def erfc_ramp(r, center, sigma):
    """The probes' erf ramp as first written, through scipy.special.erfc."""
    from scipy.special import erfc

    return 0.5 * erfc((r - center) / (math.sqrt(2) * sigma))


def diffusion_probe_full_mesh(grid, eps, mollifier=None):
    """`build_diffusion_probe` as first written, its checks left out.

    Both erf ramps run scipy's erfc on |x| = sqrt(sum(x * x)) at every
    sample, and the factors combine as (chi * formula + (1 - chi)) * psi.
    """
    from trilap import Field
    from trilap.probes import LN2, RAMP_ANCHOR, diffusion_probe_mollifier

    mol = mollifier if mollifier is not None else diffusion_probe_mollifier(grid.d, eps)
    r_pos = eps * LN2 / math.sqrt(grid.d)
    sigma_in = (r_pos - mol.r0) / RAMP_ANCHOR
    rho = 0.5 * (mol.r0 + mol.r1)
    sigma_out = (mol.r1 - mol.r0) / (2.0 * RAMP_ANCHOR)
    axes = grid.coord_mesh
    r = np.sqrt(sum(x * x for x in axes))
    formula = 2.0 - np.exp(np.minimum(sum(axes) / eps, 50.0))
    chi = erfc_ramp(r, r_pos, sigma_in)
    psi = erfc_ramp(r, rho, sigma_out)
    return Field(grid, ((chi * formula + (1.0 - chi)) * psi)[np.newaxis])


def transport_probe_full_mesh(grid, axis, sign, eps, mollifier=None):
    """`build_transport_probe` as first written, its checks left out.

    The erf ramp runs scipy's erfc on |x| at every sample.
    """
    from trilap import Field
    from trilap.probes import RAMP_ANCHOR, transport_probe_mollifier

    mol = mollifier if mollifier is not None else transport_probe_mollifier(eps)
    axes = grid.coord_mesh
    r = np.sqrt(sum(x * x for x in axes))
    width = (mol.r0 + mol.r1) / 4.0
    transverse = sum(axes[i] ** 2 for i in range(grid.d) if i != axis)
    bump = np.exp(-0.5 * transverse / width**2) if grid.d > 1 else 1.0
    formula = bump * np.exp(np.clip(-sign * axes[axis] / eps, -700.0, 700.0))
    psi = erfc_ramp(r, 0.5 * (mol.r0 + mol.r1), (mol.r1 - mol.r0) / (2.0 * RAMP_ANCHOR))
    return Field(grid, (psi * formula)[np.newaxis])


def initial_rate_field(spec, u0):
    """Right-hand side at t = 0 on the full complex layout: D lap^3 u0 + sum_i T[i] d_i u0 - F(u0).

    The rate a violation experiment keeps (`probes._rate_at_origin`) is this
    field's component k at the origin sample, bit for bit.
    """
    grid = u0.grid
    axes = tuple(range(1, grid.d + 1))
    m = spectral.symbol(spec, grid.k_sixth, grid.deriv_mesh)
    lin = np.fft.ifftn(spectral.apply_modes(m, np.fft.fftn(u0.values, axes=axes)), axes=axes).real
    return Field(grid, lin - spec.reaction.evaluate(u0.values))


def repaired_system(kind, d):
    """A violation kind's system without its coupling: identity D, zero T and reaction."""
    n = kind.ncomp
    return SystemSpec(d, n, np.eye(n), tuple(np.zeros((n, n)) for _ in range(d)))


RULE_ESSENTIAL = "essential-nonpositivity"


def check_essentially_nonpositive(matrix):
    """Every strictly positive off-diagonal entry of L: paper condition 3 for F = L u."""
    return _offdiag(matrix, "L", RULE_ESSENTIAL, lambda v: v > 0.0)
