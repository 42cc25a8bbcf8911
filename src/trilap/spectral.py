"""The per-mode symbol of the linear part, its exponentials and their application.

The linear part of the system has the per-mode symbol

    M(xi) = -|xi|^6 * D + i * sum_j xi_j * T[j]          (N x N, complex)

minus L when a linear reaction is folded in.  `symbol` is the one place it
is assembled.  It takes the |xi|^6 and first-derivative meshes as
arguments, so it serves both spectral layouts: the real half spectrum
(np.fft.rfftn, Grid.half_* meshes) that the stepper carries, and the full
complex DFT (np.fft.fftn, Grid.k_sixth / deriv_mesh) of the initial rate.
When D, every T[j] and any folded L are diagonal (the systems that pass the
audit) each mode splits into N scalar symbols, stored (N, *mesh);
otherwise there is one N x N matrix per mode, stored (*mesh, N, N).
`apply_modes` multiplies stacked spectra by either form.

Advancing the linear flow by dt multiplies each retained Fourier
coefficient vector by exp(dt * M(xi)).  Propagators live on the half
spectrum: real fields are conjugate symmetric, so the other half carries no
information.  Diagonal symbols exponentiate elementwise; coupled ones get
an N x N exponential per mode by scaling-and-squaring (diagonal Pade of
order 13, Higham's theta_13 switchover), evaluated batched over modes.
Spectra follow numpy's unnormalised forward / 1/n^d inverse convention;
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


def _is_diagonal(m: np.ndarray) -> bool:
    return np.array_equal(m, np.diag(np.diag(m)))


def symbol(spec: SystemSpec, k_sixth: np.ndarray, deriv_mesh, folded=()) -> np.ndarray:
    """M(xi) minus every matrix in `folded`, on the modes of the given meshes.

    Returns the diagonal, shape (N, *mesh), when D, every T[j] and the
    folded matrices are diagonal; otherwise one N x N matrix per mode,
    shape (*mesh, N, N).
    """
    if len(deriv_mesh) != spec.d:
        raise DimensionMismatchError(f"{len(deriv_mesh)} derivative meshes for a d={spec.d} system")
    mats = (spec.diffusion, *spec.transport, *folded)
    if all(_is_diagonal(m) for m in mats):
        column = (-1,) + (1,) * k_sixth.ndim
        mats = [np.diag(m).reshape(column) for m in mats]
    else:
        k_sixth, deriv_mesh = k_sixth[..., None, None], [xi[..., None, None] for xi in deriv_mesh]
    out = -k_sixth * mats[0].astype(complex)
    for xi, g in zip(deriv_mesh, mats[1 : spec.d + 1]):
        out += (1j * xi) * g
    for m in mats[spec.d + 1 :]:
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


def matrix_exp_batch(ms: np.ndarray) -> np.ndarray:
    """exp of a stack of small square matrices, shape (..., N, N).

    Per matrix: scale by 2^-s so the 1-norm drops below theta_13, apply the
    order-13 diagonal Pade approximant, square s times.  All stages run
    batched; the squaring loop masks matrices already done.
    """
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


@dataclass(frozen=True, eq=False)
class ModePropagator:
    """exp(dt * M(xi)) for every half-spectrum mode.

    A decoupled system stores the diagonal, exps shape (N, *half_shape),
    applied as an elementwise product; a coupled one stores an N x N matrix
    per mode, exps shape (*half_shape, N, N).  The table is read-only.
    """

    grid: Grid
    ncomp: int
    dt: float
    include_linear_reaction: bool
    exps: np.ndarray

    @property
    def decoupled(self) -> bool:
        return self.exps.ndim == self.grid.d + 1

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Advance stacked half spectra (ncomp, *half_shape) by one step."""
        return apply_modes(self.exps, coeffs)


def build_propagator(
    spec: SystemSpec,
    grid: Grid,
    dt: float,
    include_linear_reaction: bool = False,
) -> ModePropagator:
    """Precompute exp(dt*M(xi)) for every half-spectrum mode (minus L folded in if flagged).

    dt = 0 yields the identity on every mode.  Raises
    PropagatorOverflowError if any exponential entry is non-finite, which
    signals dt * |xi|^6 beyond floating-point range.
    """
    if grid.d != spec.d:
        raise DimensionMismatchError(f"grid dimension {grid.d} != system dimension {spec.d}")
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    folded = ()
    if include_linear_reaction:
        kind = spec.reaction.kind
        if kind == "linear":
            folded = (spec.reaction.matrix,)
        elif kind != "zero":
            raise ValueError("include_linear_reaction requires a zero or linear reaction")
    m = symbol(spec, grid.half_k_sixth, grid.half_deriv_mesh, folded)
    if m.ndim == grid.d + 1:
        with np.errstate(over="ignore", invalid="ignore"):
            exps = np.exp(dt * m)
    else:
        exps = matrix_exp_batch(dt * m)
    if not np.all(np.isfinite(exps)):
        raise PropagatorOverflowError(
            f"non-finite propagator entries at dt={dt:g}; reduce dt or grid resolution"
        )
    exps.setflags(write=False)
    return ModePropagator(
        grid=grid,
        ncomp=spec.ncomp,
        dt=float(dt),
        include_linear_reaction=include_linear_reaction,
        exps=exps,
    )
