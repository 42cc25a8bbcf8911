"""Test-only reference solutions, independent of the library's solver path."""

import numpy as np


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
    if spec.reaction.kind == "linear":
        symbol = symbol - np.asarray(spec.reaction.matrix)[None]
    w, v = np.linalg.eig(dt * symbol)
    expd = v @ (np.exp(w)[..., None] * np.linalg.inv(v))
    axes = tuple(range(1, d + 1))
    coeffs = np.fft.fftn(values, axes=axes).reshape(ncomp, -1)
    out = np.einsum("mij,jm->im", expd, coeffs)
    return np.fft.ifftn(out.reshape(values.shape), axes=axes).real


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
