"""The per-mode symbol of the linear part, its exponentials and their application.

The linear part of the system has the per-mode symbol

    M(xi) = -|xi|^6 * D + i * sum_j xi_j * T[j]          (N x N, complex)

minus L when F = L u exactly (Reaction.linear_matrix), which the propagators
fold in.  `symbol` is the one place it is assembled.  It takes the |xi|^6 and
first-derivative meshes as arguments, so it serves both spectral layouts:
the real half spectrum (the rfftn layout, Grid.half_* meshes) that the
stepper carries, and the full complex DFT (np.fft.fftn, Grid.k_sixth /
deriv_mesh) of the initial rate.
When D, every T[j] and any folded L are diagonal (the systems that pass the
audit) each mode splits into N scalar symbols, stored (N, *mesh);
otherwise there is one N x N matrix per mode, stored (N, N, *mesh).  Both
forms are component-major like the spectra (N, *mesh) they act on: entry
(i, j) of every mode is one contiguous plane, and no layout is transposed
between the symbol, its exponential and their application.
`apply_modes` multiplies stacked spectra by either form.

Advancing the linear flow by dt multiplies each retained Fourier
coefficient vector by exp(dt * M(xi)).  Propagators live on the half
spectrum: real fields are conjugate symmetric, so the other half carries no
information.  Diagonal symbols exponentiate elementwise; coupled ones get
an N x N exponential per mode by scaling-and-squaring (diagonal Pade of
order 13, Higham's theta_13 switchover), batched over the modes, with every
product formed as N^3 elementwise multiply-adds (`_mm`): tables agree with
one tiny BLAS matmul per matrix to rounding, not bit for bit.  A stiff
symbol's high modes are never assembled: ||exp(A)||_2 <= exp(mu_2(A)), and
`build_propagator` bounds mu_2(dt * M(xi)) straight from the meshes; below
-800 every entry of exp rounds to +0.0 (the Pade could leave -0.0 there, so
tables are equal as numbers, np.array_equal, not byte for byte).
`rfftn` and `irfftn` are the one home of the half-spectrum transforms.  They
run numpy.fft's 1-D passes in scipy.fft's order: the real pass on the last
axis (first forward, last inverse) and the complex passes on the other axes
in increasing order.  So their bits are scipy.fft.rfftn / irfftn's, without
loading scipy; numpy.fft.rfftn runs its forward complex passes in reverse
order and differs by rounding at d=3.  Spectra follow the unnormalised
forward / 1/n^d inverse convention; odd-derivative multipliers zero the
unmatched Nyquist frequency (see core.Grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, Grid, SystemSpec

__all__ = [
    "ModePropagator",
    "PropagatorOverflowError",
    "rfftn",
    "irfftn",
    "symbol",
    "apply_modes",
    "matrix_exp_batch",
    "build_propagator",
]


class PropagatorOverflowError(ArithmeticError):
    """exp(dt * M) produced non-finite entries; reduce dt or the resolution."""


def rfftn(values: np.ndarray, d: int) -> np.ndarray:
    """Half spectrum of real data over its last d axes (leading axes are a batch)."""
    out = np.fft.rfft(values, axis=-1)
    for axis in range(out.ndim - d, out.ndim - 1):
        np.fft.fft(out, axis=axis, out=out)
    return out


def irfftn(coeffs: np.ndarray, n: int, d: int) -> np.ndarray:
    """Real samples, n per axis, of half spectra over their last d axes.

    The first complex pass writes a new array and the others run in place
    on it, so `coeffs` is left as it was.  numpy.fft.irfftn runs the same
    passes but writes a new array in each, which read 26% more wall time on
    the simulate_d3 benchmark (BENCH_23.json).  Each pass scales by 1/n where
    scipy.fft scales by 1/n^d once; n is a power of two (core.Grid), so the
    scalings are exact and the bits agree.
    """
    out = coeffs
    for axis in range(coeffs.ndim - d, coeffs.ndim - 1):
        out = np.fft.ifft(out, axis=axis, out=None if out is coeffs else out)
    return np.fft.irfft(out, n=n, axis=-1)


def _decoupled(spec: SystemSpec, folded) -> bool:
    """D, every T[j] and `folded` are diagonal: each mode splits into N scalar symbols."""
    mats = (spec.diffusion, *spec.transport, *folded)
    return all(np.array_equal(m, np.diag(np.diag(m))) for m in mats)


def symbol(spec: SystemSpec, k_sixth: np.ndarray, deriv_mesh, folded=(), row=None,
           col=None) -> np.ndarray:
    """M(xi) minus every matrix in `folded`, on the modes of the given meshes.

    Returns the diagonal, shape (N, *mesh), when D, every T[j] and the
    folded matrices are diagonal; otherwise one N x N matrix per mode,
    stored component-major, shape (N, N, *mesh).  Given a `row` index, only
    that row of every matrix is formed, shape (1, *mesh) or (1, N, *mesh),
    and given a `col` as well (coupled form only), only that entry, shape
    (1, 1, *mesh); each has the same bits as the full symbol's.  The mesh
    of an axis whose T[j] is zero is never read, in either form.
    """
    if len(deriv_mesh) != spec.d:
        raise DimensionMismatchError(f"{len(deriv_mesh)} derivative meshes for a d={spec.d} system")
    rows = slice(None) if row is None else slice(row, row + 1)
    cols = slice(None) if col is None else slice(col, col + 1)
    moving = [(xi, g) for xi, g in zip(deriv_mesh, spec.transport) if np.any(g)]
    deriv_mesh = [xi for xi, _ in moving]
    mats = (spec.diffusion, *(g for _, g in moving), *folded)
    decoupled = _decoupled(spec, folded)
    # the matrix axes lead and broadcast against the meshes, which keep their shape
    mats = [(np.diag(m)[rows] if decoupled else m[rows, cols])[(...,) + (None,) * k_sixth.ndim]
            for m in mats]
    out = -k_sixth * mats[0].astype(complex)
    for xi, g in zip(deriv_mesh, mats[1 : len(moving) + 1]):
        out += (1j * xi) * g
    for m in mats[len(moving) + 1 :]:
        out -= m
    return out


def apply_modes(table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Multiply stacked spectra (N, *mesh) by a symbol or propagator table, mode by mode.

    A table of shape (N, *mesh) multiplies elementwise; one of shape
    (R, N, *mesh) applies its R x N matrix to each mode's coefficient
    vector, returning (R, *mesh).
    """
    decoupled = table.ndim == coeffs.ndim
    if coeffs.shape != (table.shape if decoupled else table.shape[1:]):
        raise DimensionMismatchError(
            f"spectra of shape {coeffs.shape} do not fit a table of shape {table.shape}"
        )
    if decoupled:
        return table * coeffs
    # the sums of a per-mode matmul in its order, over every mode at once
    # (matmul's per-mode overhead dominates on tiny matrices)
    out = table[:, 0] * coeffs[0]
    for j in range(1, coeffs.shape[0]):
        out += table[:, j] * coeffs[j]
    return out


# ---------------------------------------------------------------------------
# batched matrix exponential (scaling and squaring, Pade order 13)

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of two stacks of small matrices held component-major, shape (N, N, M).

    Each output entry is a sum of elementwise products over the M matrices,
    the per-matrix loop a batched matmul would run M times on tiny operands.
    """
    n = a.shape[0]
    out = np.empty_like(a)
    term = np.empty_like(a[0, 0])
    for i in range(n):
        for j in range(n):
            np.multiply(a[i, 0], b[0, j], out=out[i, j])
            for k in range(1, n):
                out[i, j] += np.multiply(a[i, k], b[k, j], out=term)
    return out


def matrix_exp_batch(ms: np.ndarray) -> np.ndarray:
    """exp of a stack of small square matrices held component-major, shape (N, N, *batch).

    Per matrix: scale by 2^-s so the 1-norm drops below theta_13, apply the
    order-13 diagonal Pade approximant, square s times (round k squares the
    matrices with s > k).  All stages run batched on the stack flattened to
    (N, N, M), so every product is N^3 elementwise multiply-adds over M
    matrices (`_mm`); every matrix goes through every stage.  A matrix with
    a NaN or inf entry is not scaled, and its exponential is non-finite.
    """
    ms = np.asarray(ms, dtype=complex)
    n = ms.shape[0]
    a = ms.reshape(n, n, -1)
    norm1 = np.abs(a).sum(axis=0).max(axis=0)
    eye = np.eye(n, dtype=complex)[..., None]
    b = _PADE13
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.ceil(np.log2(np.maximum(norm1, 1e-300) / _THETA13))
        # a non-finite matrix is not scaled (its result is non-finite anyway):
        # casting its inf or NaN s to int is undefined
        s = np.where(np.isfinite(s), np.maximum(s, 0.0), 0.0).astype(int)
        a = a * 0.5**s
        a2 = _mm(a, a)
        a4 = _mm(a2, a2)
        a6 = _mm(a2, a4)
        u = _mm(a, _mm(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
                + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (_mm(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
        r = np.linalg.solve(np.moveaxis(v - u, -1, 0), np.moveaxis(v + u, -1, 0))
        r = np.ascontiguousarray(np.moveaxis(r, 0, -1))
        for k in range(s.max(initial=0)):
            w = r[..., s > k]
            r[..., s > k] = _mm(w, w)
    # exp(0) = I exactly; complex division in the Pade solve leaves eps-level dust
    r[..., norm1 == 0.0] = eye
    return r.reshape(ms.shape)


@dataclass(frozen=True, eq=False)
class ModePropagator:
    """exp(dt * M(xi)) for every half-spectrum mode.

    A decoupled system stores the diagonal, exps shape (N, *half_shape),
    applied as an elementwise product; a coupled one stores an N x N matrix
    per mode component-major, exps shape (N, N, *half_shape), so exps[i, j]
    is the contiguous plane of entry (i, j).  The table is read-only.
    """

    grid: Grid
    exps: np.ndarray

    @property
    def decoupled(self) -> bool:
        return self.exps.ndim == self.grid.d + 1

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Advance stacked half spectra (N, *half_shape) by one step."""
        return apply_modes(self.exps, coeffs)


# exp(A) rounds to exact zeros once mu_2(A) is below this: ln 2^-1075 = -745.13,
# less a margin of e^-55 for the Pade's rounding, which then gives zeros too
_UNDERFLOW_LOG_NORM = -800.0


def _gershgorin_bounds(spec: SystemSpec, grid: Grid, dt: float, folded) -> np.ndarray:
    """Upper bound on mu_2(dt * M(xi)) on every half-spectrum mode, formed from no matrix.

    Gershgorin's theorem on the Hermitian part bounds mu_2(A) by its largest row
    Re a_ii + sum_{j != i} |a_ij + conj(a_ji)| / 2; split over D, T[a] and L by the
    triangle inequality, row i is dt * (|xi|^6 c_D[i] + sum_a |xi_a| c_T[a][i] + c_L[i]),
    at least the assembled one.  Where an entry could overflow the bound is +inf.
    """
    def rows(m, sign):  # -m_ii (only with sign > 0) + sum_{j != i} |m_ij + sign * m_ji| / 2
        off = np.abs(m / 2.0 + sign * m.T / 2.0)  # halved first, so finite for every finite m
        np.fill_diagonal(off, 0.0)
        return off.sum(axis=1) - (sign > 0) * np.diag(m)

    k6, xis = grid.half_k_sixth, [np.abs(xi) for xi in grid.half_deriv_mesh]
    terms = [(k6, spec.diffusion), *zip(xis, spec.transport), *((1.0, m) for m in folded)]
    # 4N times this exceeds every entry of M and of dt * M, and every row below
    scale = max(dt, 1.0) * sum(np.max(w) * np.abs(m).max() for w, m in terms)
    if not np.isfinite(4.0 * spec.ncomp * scale):
        return np.full(grid.half_shape, np.inf)
    moving = [(xi, t) for xi, g in zip(xis, spec.transport) if (t := rows(g, -1.0)).any()]
    lin = sum((rows(m, 1.0) for m in folded), np.zeros(spec.ncomp))
    bound = np.full(grid.half_shape, -np.inf)
    for i, c in enumerate(rows(spec.diffusion, 1.0)):
        row = k6 * c + lin[i]
        for xi, t in moving:
            row += xi * t[i]
        np.maximum(bound, dt * row, out=bound)
    return bound


def build_propagator(spec: SystemSpec, grid: Grid, dt: float) -> ModePropagator:
    """Precompute exp(dt*M(xi)) for every half-spectrum mode.

    When F = L u exactly (Reaction.linear_matrix is not None), L is part of
    the linear flow and is folded in (M - L); other reactions are the caller's.
    dt = 0 yields the identity on every mode.  A coupled system assembles
    and exponentiates only the modes whose bound (`_gershgorin_bounds`) is
    -800 or more; every entry elsewhere is +0.0.  Raises
    PropagatorOverflowError if any exponential entry is non-finite, which
    signals dt * |xi|^6 beyond floating-point range.
    """
    if grid.d != spec.d:
        raise DimensionMismatchError(f"grid dimension {grid.d} != system dimension {spec.d}")
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    lin = spec.reaction.linear_matrix()
    folded = () if lin is None else (lin,)
    # an overflow in dt * M leaves a non-finite entry, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        if _decoupled(spec, folded):
            exps = live = np.exp(dt * symbol(spec, grid.half_k_sixth, grid.half_deriv_mesh, folded))
        else:
            at = np.nonzero(_gershgorin_bounds(spec, grid, dt, folded) >= _UNDERFLOW_LOG_NORM)
            mesh = [np.broadcast_to(xi, grid.half_shape)[at] for xi in grid.half_deriv_mesh]
            live = matrix_exp_batch(dt * symbol(spec, grid.half_k_sixth[at], mesh, folded))
            exps = np.zeros((spec.ncomp,) * 2 + grid.half_shape, dtype=complex)
            exps[(slice(None),) * 2 + at] = live
    if not np.all(np.isfinite(live)):
        raise PropagatorOverflowError(
            f"non-finite propagator entries at dt={dt:g}; reduce dt or grid resolution"
        )
    exps.setflags(write=False)
    return ModePropagator(grid=grid, exps=exps)
