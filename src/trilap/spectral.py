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
otherwise there is one N x N matrix per mode, stored (*mesh, N, N).
`apply_modes` multiplies stacked spectra by either form.

Advancing the linear flow by dt multiplies each retained Fourier
coefficient vector by exp(dt * M(xi)).  Propagators live on the half
spectrum: real fields are conjugate symmetric, so the other half carries no
information.  Diagonal symbols exponentiate elementwise; coupled ones get
an N x N exponential per mode by scaling-and-squaring (diagonal Pade of
order 13, Higham's theta_13 switchover), batched over every mode.
The exponential holds its stack component-major, (N, N, M), and forms
every product as N^3 elementwise multiply-adds over the M matrices (`_mm`),
where a batched matmul would make one tiny BLAS call per matrix; tables
agree with that to rounding, not bit for bit.  Most high modes of a
stiff symbol never reach the Pade: ||exp(A)||_2 <= exp(mu_2(A)), where
mu_2(A) is the largest eigenvalue of the Hermitian part (A + A^H) / 2,
and Gershgorin's theorem on that part bounds mu_2 from above in a few
elementwise passes.  A finite matrix whose bound is below -800 has every
entry of exp(A) below e^-800, under 2^-1075 (ln = -745.13), so each
rounds to 0 in doubles: it gets exact zeros.  The margin of e^-55 covers
the Pade's rounding, which returns zeros there too; the skipped entries
are +0.0 where the Pade could leave -0.0, so tables are equal as numbers
(np.array_equal), not byte for byte.
Spectra follow the unnormalised forward / 1/n^d inverse convention that
numpy.fft and scipy.fft share;
odd-derivative multipliers zero the unmatched Nyquist frequency (see
core.Grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, Grid, SystemSpec

__all__ = [
    "ModePropagator",
    "PropagatorOverflowError",
    "symbol",
    "apply_modes",
    "matrix_exp_batch",
    "build_propagator",
]


class PropagatorOverflowError(ArithmeticError):
    """exp(dt * M) produced non-finite entries; reduce dt or the resolution."""


def _decoupled(spec: SystemSpec, folded) -> bool:
    """True when D, every T[j] and the folded matrices are diagonal."""
    mats = (spec.diffusion, *spec.transport, *folded)
    return all(np.array_equal(m, np.diag(np.diag(m))) for m in mats)


def symbol(spec: SystemSpec, k_sixth: np.ndarray, deriv_mesh, folded=(), row=None) -> np.ndarray:
    """M(xi) minus every matrix in `folded`, on the modes of the given meshes.

    Returns the diagonal, shape (N, *mesh), when D, every T[j] and the
    folded matrices are diagonal; otherwise one N x N matrix per mode,
    shape (*mesh, N, N).  Given a `row` index, only that row of every
    matrix is formed, shape (1, *mesh) or (*mesh, 1, N), with the same
    bits as the full symbol's row.  The mesh of an axis whose T[j] is zero
    is never read, in either form.
    """
    if len(deriv_mesh) != spec.d:
        raise DimensionMismatchError(f"{len(deriv_mesh)} derivative meshes for a d={spec.d} system")
    rows = slice(None) if row is None else slice(row, row + 1)
    moving = [(xi, g) for xi, g in zip(deriv_mesh, spec.transport) if np.any(g)]
    deriv_mesh = [xi for xi, _ in moving]
    mats = (spec.diffusion, *(g for _, g in moving), *folded)
    if _decoupled(spec, folded):
        column = (-1,) + (1,) * k_sixth.ndim
        mats = [np.diag(m)[rows].reshape(column) for m in mats]
    else:
        mats = [m[rows] for m in mats]
        k_sixth, deriv_mesh = k_sixth[..., None, None], [xi[..., None, None] for xi in deriv_mesh]
    out = -k_sixth * mats[0].astype(complex)
    for xi, g in zip(deriv_mesh, mats[1 : len(moving) + 1]):
        out += (1j * xi) * g
    for m in mats[len(moving) + 1 :]:
        out -= m
    return out


def apply_modes(table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Multiply stacked spectra (N, *mesh) by a symbol or propagator table, mode by mode.

    A table of shape (N, *mesh) multiplies elementwise; one of shape
    (*mesh, N, N) applies its matrix to each mode's coefficient vector.
    """
    decoupled = table.ndim == coeffs.ndim
    fits = table.shape if decoupled else (table.shape[-1],) + table.shape[:-2]
    if coeffs.shape != fits:
        raise DimensionMismatchError(
            f"spectra of shape {coeffs.shape} do not fit a table of shape {table.shape}"
        )
    if decoupled:
        return table * coeffs
    # the sums of a batched per-mode matmul, one output component at a time
    # (matmul's per-mode overhead dominates on tiny matrices); components sit
    # innermost in memory as that matmul returns them, so results match it bit for bit
    n = coeffs.shape[0]
    out = np.empty(coeffs.shape[1:] + (n,), dtype=np.result_type(table, coeffs))
    for i in range(n):
        np.multiply(table[..., i, 0], coeffs[0], out=out[..., i])
        for j in range(1, n):
            out[..., i] += table[..., i, j] * coeffs[j]
    return np.moveaxis(out, -1, 0)


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


# exp(A) rounds to exact zeros once mu_2(A) is below this: ln 2^-1075 = -745.13,
# less a margin of e^-55 for the Pade's rounding, which then gives zeros too
_UNDERFLOW_LOG_NORM = -800.0


def _log_norm_bound(a: np.ndarray) -> np.ndarray:
    """Upper bound on mu_2(A) = lambda_max((A + A^H) / 2), per matrix of a stack (N, N, M).

    Gershgorin's theorem on the Hermitian part: its eigenvalues lie in the
    union of the discs around Re a_ii of radius sum_{j != i} |a_ij + conj(a_ji)| / 2.
    """
    n = a.shape[0]
    bound = np.full(a.shape[-1], -np.inf)
    for i in range(n):
        row = a[i, i].real.copy()
        for j in range(n):
            if j != i:
                row += 0.5 * np.abs(a[i, j] + np.conj(a[j, i]))
        np.maximum(bound, row, out=bound)
    return bound


def matrix_exp_batch(ms: np.ndarray) -> np.ndarray:
    """exp of a stack of small square matrices, shape (..., N, N).

    A finite matrix whose log-norm bound (`_log_norm_bound`) is below
    `_UNDERFLOW_LOG_NORM` gets exact zeros: ||exp(A)||_2 <= exp(mu_2(A)), so
    every entry of exp(A) is below e^-800 < 2^-1075 and rounds to 0.  Such
    matrices (the high modes of a stiff symbol, most of a stack) skip all
    that follows; the others go through it.  Per matrix: scale by 2^-s so
    the 1-norm drops below theta_13, apply the order-13 diagonal Pade
    approximant, square s times (round k squares the matrices with s > k).
    All stages run batched on the stack held component-major, (N, N, M), so
    every product is N^3 elementwise multiply-adds over M matrices (`_mm`).
    A matrix with a NaN or inf entry is never skipped nor scaled, and its
    exponential is non-finite.
    """
    ms = np.asarray(ms, dtype=complex)
    n = ms.shape[-1]
    out = np.zeros(ms.shape, dtype=complex)
    # component-major and contiguous: each entry is one vector over the stack
    a = np.moveaxis(ms.reshape(-1, n, n), 0, -1).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        zero = (_log_norm_bound(a) < _UNDERFLOW_LOG_NORM) & np.isfinite(a).all(axis=(0, 1))
    live = np.flatnonzero(~zero)
    a = a.take(live, axis=-1)
    norm1 = np.abs(a).sum(axis=0).max(axis=0)
    eye = np.eye(n, dtype=complex)[..., None]
    b = _PADE13
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.ceil(np.log2(np.maximum(norm1, 1e-300) / _THETA13))
        # a non-finite matrix is not scaled (its result is non-finite anyway):
        # casting its inf or NaN s to int is undefined
        s = np.where(np.isfinite(s), np.maximum(s, 0.0), 0.0).astype(int)
        a *= 0.5**s
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
    out.reshape(-1, n, n)[live] = np.moveaxis(r, -1, 0)
    return out


@dataclass(frozen=True, eq=False)
class ModePropagator:
    """exp(dt * M(xi)) for every half-spectrum mode.

    A decoupled system stores the diagonal, exps shape (N, *half_shape),
    applied as an elementwise product; a coupled one stores an N x N matrix
    per mode, exps shape (*half_shape, N, N).  The table is read-only.
    """

    grid: Grid
    exps: np.ndarray

    @property
    def decoupled(self) -> bool:
        return self.exps.ndim == self.grid.d + 1

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Advance stacked half spectra (N, *half_shape) by one step."""
        return apply_modes(self.exps, coeffs)


def build_propagator(spec: SystemSpec, grid: Grid, dt: float) -> ModePropagator:
    """Precompute exp(dt*M(xi)) for every half-spectrum mode.

    When F = L u exactly (Reaction.linear_matrix is not None), L is part of
    the linear flow and is folded in (M - L); other reactions are the caller's.
    dt = 0 yields the identity on every mode.  Raises
    PropagatorOverflowError if any exponential entry is non-finite, which
    signals dt * |xi|^6 beyond floating-point range.
    """
    if grid.d != spec.d:
        raise DimensionMismatchError(f"grid dimension {grid.d} != system dimension {spec.d}")
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    lin = spec.reaction.linear_matrix(spec.ncomp)
    folded = () if lin is None else (lin,)
    # an overflow in dt * M leaves a non-finite entry, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        m = dt * symbol(spec, grid.half_k_sixth, grid.half_deriv_mesh, folded)
        exps = np.exp(m) if _decoupled(spec, folded) else matrix_exp_batch(m)
    if not np.all(np.isfinite(exps)):
        raise PropagatorOverflowError(
            f"non-finite propagator entries at dt={dt:g}; reduce dt or grid resolution"
        )
    exps.setflags(write=False)
    return ModePropagator(grid=grid, exps=exps)
