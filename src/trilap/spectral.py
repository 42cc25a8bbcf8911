"""Discrete Fourier transforms, spectral multipliers and mode propagators.

The linear part of the system has the per-mode symbol

    M(xi) = -|xi|^6 * D + i * sum_j xi_j * T[j]          (N x N, complex)

so advancing the linear flow by dt multiplies each retained Fourier
coefficient vector by exp(dt * M(xi)).  Propagators live on the real half
spectrum (np.fft.rfftn layout, Grid.half_shape modes): real fields are
conjugate symmetric, so the other half carries no information.  When D,
every T[j] and any folded L are diagonal (the systems that pass the audit)
each mode splits into N scalar ODEs and the table is the elementwise
exp(dt * (-|xi|^6 D_kk + i xi.T_kk - L_kk)).  Coupled systems get an N x N
exponential per mode by scaling-and-squaring (diagonal Pade of order 13,
Higham's theta_13 switchover), evaluated batched over modes.

`forward`, `inverse` and the multipliers keep the full complex DFT per
component, numpy's unnormalised forward / 1/n^d inverse convention,
coefficients indexed like np.fft.fftfreq.  Real input fields keep
conjugate symmetry under every operation here; odd-derivative multipliers
zero the unmatched Nyquist frequency (see core.Grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, Field, Grid, SystemSpec, as_square_matrix

__all__ = [
    "SpectrumField",
    "ModePropagator",
    "PropagatorOverflowError",
    "forward",
    "inverse",
    "apply_laplacian_cubed",
    "apply_transport",
    "matrix_exp_batch",
    "build_propagator",
]


class PropagatorOverflowError(ArithmeticError):
    """exp(dt * M) produced non-finite entries; reduce dt or the resolution."""


@dataclass(frozen=True, eq=False)
class SpectrumField:
    """Fourier coefficients of a field, shape (ncomp, n, ..., n) complex."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != self.grid.d + 1 or c.shape[1:] != self.grid.shape:
            raise DimensionMismatchError(
                f"spectrum shape {c.shape} does not match grid shape (ncomp,) + {self.grid.shape}"
            )
        object.__setattr__(self, "coeffs", c)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]


def forward(u: Field) -> SpectrumField:
    """DFT per component."""
    axes = tuple(range(1, u.grid.d + 1))
    return SpectrumField(u.grid, np.fft.fftn(u.values, axes=axes))


def inverse(s: SpectrumField) -> Field:
    """Inverse DFT per component; imaginary residue of real data is dropped."""
    axes = tuple(range(1, s.grid.d + 1))
    return Field(s.grid, np.fft.ifftn(s.coeffs, axes=axes).real)


def apply_laplacian_cubed(s: SpectrumField, diffusion) -> SpectrumField:
    """Multiply each mode by -|xi|^6 and mix components by the diffusion matrix."""
    mat = as_square_matrix(diffusion, side=s.ncomp, name="A")
    out = np.einsum("kj,j...->k...", mat, s.coeffs)
    out *= -s.grid.k_sixth
    return SpectrumField(s.grid, out)


def apply_transport(s: SpectrumField, transport) -> SpectrumField:
    """First-derivative term: out(xi) = i * sum_j xi_j * T[j] * s(xi)."""
    gammas = tuple(transport)
    if len(gammas) != s.grid.d:
        raise DimensionMismatchError(
            f"expected {s.grid.d} transport matrices, got {len(gammas)}"
        )
    out = np.zeros_like(s.coeffs)
    for axis, g in enumerate(gammas):
        mat = as_square_matrix(g, side=s.ncomp, name=f"Gamma[{axis}]")
        out += 1j * s.grid.deriv_mesh[axis] * np.einsum("kj,j...->k...", mat, s.coeffs)
    return SpectrumField(s.grid, out)


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
        if self.decoupled:
            return self.exps * coeffs
        flat = coeffs.reshape(self.ncomp, -1).T[:, :, None]
        out = np.matmul(self.exps.reshape(-1, self.ncomp, self.ncomp), flat)
        return out[:, :, 0].T.reshape(coeffs.shape)


def _is_diagonal(m: np.ndarray) -> bool:
    return np.array_equal(m, np.diag(np.diag(m)))


def _diagonal_column(m: np.ndarray, d: int) -> np.ndarray:
    """The diagonal of m shaped (N, 1, ..., 1) to broadcast over d mode axes."""
    return np.diag(m).reshape((-1,) + (1,) * d)


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
    n = spec.ncomp
    diff, gammas = spec.diffusion, spec.transport
    k6, xis = grid.half_k_sixth, grid.half_deriv_mesh
    decoupled = all(_is_diagonal(m) for m in (diff, *gammas, *folded))
    if decoupled:
        # N scalar symbols per mode, shape (N, *half_shape)
        diff = _diagonal_column(diff, grid.d)
        gammas = [_diagonal_column(g, grid.d) for g in gammas]
        folded = [_diagonal_column(m, grid.d) for m in folded]
    else:
        # one N x N symbol per mode, shape (modes, N, N)
        k6, xis = k6.reshape(-1, 1, 1), [xi.reshape(-1, 1, 1) for xi in xis]

    symbol = -k6 * diff.astype(complex)
    for xi, g in zip(xis, gammas):
        symbol = symbol + (1j * xi) * g
    for m in folded:
        symbol = symbol - m
    if decoupled:
        with np.errstate(over="ignore", invalid="ignore"):
            exps = np.exp(dt * symbol)
    else:
        exps = matrix_exp_batch(dt * symbol).reshape(grid.half_shape + (n, n))
    if not np.all(np.isfinite(exps)):
        raise PropagatorOverflowError(
            f"non-finite propagator entries at dt={dt:g}; reduce dt or grid resolution"
        )
    exps.setflags(write=False)
    return ModePropagator(
        grid=grid,
        ncomp=n,
        dt=float(dt),
        include_linear_reaction=include_linear_reaction,
        exps=exps,
    )
