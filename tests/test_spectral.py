import numpy as np
import pytest
import scipy.linalg

from trilap import (
    DimensionMismatchError,
    Field,
    Grid,
    PolynomialReaction,
    PropagatorOverflowError,
    SystemSpec,
    apply_modes,
    build_propagator,
    matrix_exp_batch,
    symbol,
)
from trilap import spectral
from trilap.probes import DiffusionViolation, ReactionViolation, TransportViolation, default_t_probe

from conftest import pd_diffusion, zero_transport
from oracles import apply_modes_components_innermost, matrix_exp_reference


def _conjugate_mirror(c):
    """c(-k) for every axis of a full DFT spectrum."""
    d = c.ndim - 1
    out = c
    for ax in range(1, d + 1):
        out = np.flip(np.roll(out, -1, axis=ax), axis=ax)
    return out


def _fft(u):
    return np.fft.fftn(u.values, axes=tuple(range(1, u.grid.d + 1)))


def _ifft(grid, c):
    return np.fft.ifftn(c, axes=tuple(range(1, grid.d + 1))).real


def _full_symbol(grid, diffusion, transport=None, with_lap3=True):
    """symbol() on the full complex layout; with_lap3=False keeps only the transport term."""
    n = np.shape(diffusion)[0]
    spec = SystemSpec(grid.d, n, diffusion,
                      transport if transport is not None else zero_transport(grid.d, n))
    k6 = grid.k_sixth if with_lap3 else np.zeros_like(grid.k_sixth)
    return symbol(spec, k6, grid.deriv_mesh)


def test_roundtrip(rng):
    # unit tables in both storage forms leave every mode as it is
    g = Grid(d=2, n=16, box=8.0)
    u = Field(g, rng.standard_normal((2, 16, 16)))
    eye = np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2) + g.shape)
    for table in (np.ones((2,) + g.shape), eye):
        back = _ifft(g, apply_modes(table, _fft(u)))
        assert np.abs(back - u.values).max() < 1e-12


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("batch", [(), (1,), (3,)])
def test_half_spectrum_transforms_have_the_bits_of_scipy_fft(rng, d, n, batch):
    import scipy.fft

    values = rng.standard_normal(batch + (n,) * d)
    axes = tuple(range(len(batch), len(batch) + d))
    assert _same_bits(spectral.rfftn(values, d), scipy.fft.rfftn(values, axes=axes))
    # any half spectrum, not only one of real data
    shape = batch + (n,) * (d - 1) + (n // 2 + 1,)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert _same_bits(spectral.irfftn(coeffs, n, d), scipy.fft.irfftn(coeffs, s=(n,) * d, axes=axes))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_irfftn_leaves_its_input(rng, d):
    coeffs = spectral.rfftn(rng.standard_normal((2,) + (8,) * d), d)
    kept = coeffs.copy()
    coeffs.setflags(write=False)
    spectral.irfftn(coeffs, 8, d)
    assert _same_bits(coeffs, kept)


def test_constant_field_spectrum(grid1d):
    u = Field(grid1d, np.ones((1, 64)))
    c = _fft(u)[0]
    assert c[0] == pytest.approx(64.0)
    assert np.abs(c[1:]).max() < 1e-10
    # the symbol vanishes on the mean mode
    assert _full_symbol(grid1d, [[1.0]], ([[0.5]],))[0, 0] == 0.0


def test_cosine_two_coefficients(grid1d):
    x = grid1d.axis_coords
    u = Field(grid1d, np.cos(2 * np.pi * x / grid1d.box)[None])
    c = _fft(u)[0]
    big = np.abs(c) > 1e-8
    assert big.sum() == 2 and big[1] and big[-1]
    assert grid1d.wavenumbers[1] == pytest.approx(2 * np.pi / grid1d.box)


def test_laplacian_cubed_symbol_on_harmonic(grid1d):
    # resolved harmonic: every coefficient is multiplied by exactly -k^6
    k = 2 * np.pi * 3 / grid1d.box
    x = grid1d.axis_coords
    u = Field(grid1d, np.cos(k * x)[None])
    c_in = _fft(u)[0]
    c_out = apply_modes(_full_symbol(grid1d, np.eye(1)), _fft(u))
    for mode in (3, -3):
        assert c_out[0, mode] == pytest.approx(-(k**6) * c_in[mode], rel=1e-12)
    # physical-space values match up to the |xi|^6-amplified transform roundoff
    out = _ifft(grid1d, c_out)
    floor = 1e-14 * grid1d.k_sixth.max() * grid1d.n
    assert np.abs(out + k**6 * u.values).max() < floor


def test_symbol_identity_every_mode():
    # delta spectrum in each retained mode picks up exactly -(2 pi m / box)^6
    g = Grid(d=1, n=16, box=8.0)
    table = _full_symbol(g, np.eye(1))
    for m in range(16):
        c = np.zeros((1, 16), dtype=complex)
        c[0, m] = 1.0
        out = apply_modes(table, c)
        freq = m if m < 8 else m - 16
        want = -((2 * np.pi * freq / 8.0) ** 6)
        assert out[0, m] == pytest.approx(want, rel=1e-12, abs=1e-12)
        others = np.delete(out[0], m)
        assert np.abs(others).max() == 0.0


def test_forward_of_real_field_is_conjugate_symmetric(rng):
    g = Grid(d=2, n=16, box=8.0)
    c = _fft(Field(g, rng.standard_normal((1, 16, 16))))
    mirror = _conjugate_mirror(c)
    assert np.abs(mirror.conj() - c).max() < 1e-12 * np.abs(c).max()


def test_laplacian_cubed_kills_mean(grid1d):
    u = Field(grid1d, np.full((1, 64), 3.0))
    out = apply_modes(_full_symbol(grid1d, np.eye(1)), _fft(u))
    assert np.abs(out).max() < 1e-8


def test_transport_constant_is_zero(grid1d):
    u = Field(grid1d, np.full((1, 64), 2.0))
    table = _full_symbol(grid1d, np.eye(1), [np.eye(1)], with_lap3=False)
    out = _ifft(grid1d, apply_modes(table, _fft(u)))
    assert np.abs(out).max() < 1e-12


def test_transport_derivative_of_sine(grid1d):
    k = 2 * np.pi / grid1d.box
    x = grid1d.axis_coords
    u = Field(grid1d, np.sin(k * x)[None])
    table = _full_symbol(grid1d, np.eye(1), [np.eye(1)], with_lap3=False)
    out = _ifft(grid1d, apply_modes(table, _fft(u)))
    assert np.abs(out - k * np.cos(k * x)[None]).max() < 1e-10


def test_transport_offdiagonal_mixes_components(grid1d, rng):
    gam = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = grid1d.axis_coords
    vals = np.stack([rng.standard_normal(64), np.sin(2 * np.pi * x / grid1d.box)])
    u = Field(grid1d, vals)
    table = _full_symbol(grid1d, np.eye(2), [gam], with_lap3=False)
    assert table.shape == (2, 2) + grid1d.shape
    out = _ifft(grid1d, apply_modes(table, _fft(u)))
    k = 2 * np.pi / grid1d.box
    assert np.abs(out[0] - k * np.cos(k * x)).max() < 1e-10
    assert np.abs(out[1]).max() < 1e-12


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 8)])
@pytest.mark.parametrize("ncomp", [2, 3, 4])
def test_coupled_apply_has_the_bits_of_the_components_innermost_loop(rng, d, n, ncomp):
    # component-major tables give the same sums, in the same order, as the
    # mode-major loop; signed zeros and exact zeros included
    g = Grid(d=d, n=n, box=8.0)

    def stack(shape):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a[rng.random(shape) < 0.1] = -0.0
        a[rng.random(shape) < 0.1] = 0.0
        return a

    table, coeffs = stack((ncomp, ncomp) + g.half_shape), stack((ncomp,) + g.half_shape)
    want = apply_modes_components_innermost(np.moveaxis(table, (0, 1), (-2, -1)), coeffs)
    got = apply_modes(table, coeffs)
    assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_multiplier_ops_preserve_conjugate_symmetry(rng):
    g = Grid(d=2, n=16, box=8.0)
    u = Field(g, rng.standard_normal((2, 16, 16)))
    s = _fft(u)
    a = pd_diffusion(rng, 2)
    gammas = tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(2))
    tables = (_full_symbol(g, a), _full_symbol(g, np.eye(2), gammas, with_lap3=False))
    for out in (apply_modes(t, s) for t in tables):
        mirror = _conjugate_mirror(out)
        scale = np.abs(out).max() or 1.0
        assert np.abs(mirror.conj() - out).max() < 1e-12 * scale


def test_shape_mismatch_errors(grid1d, rng):
    s = _fft(Field(grid1d, rng.standard_normal((2, 64))))
    with pytest.raises(DimensionMismatchError):
        apply_modes(_full_symbol(grid1d, np.eye(3)), s)
    with pytest.raises(DimensionMismatchError):
        apply_modes(_full_symbol(grid1d, pd_diffusion(rng, 3)), s)
    g2 = Grid(d=2, n=16, box=8.0)
    with pytest.raises(DimensionMismatchError):
        symbol(SystemSpec(1, 2, np.eye(2), zero_transport(1, 2)), g2.k_sixth, g2.deriv_mesh)


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 8)])
def test_symbol_half_mesh_and_diagonal_form(rng, d, n):
    g = Grid(d=d, n=n, box=8.0)
    ncomp, cut = 3, n // 2 + 1
    spec = SystemSpec(d, ncomp, np.diag(rng.uniform(0.2, 2.0, ncomp)),
                      tuple(np.diag(rng.uniform(-1.0, 1.0, ncomp)) for _ in range(d)))
    full = symbol(spec, g.k_sixth, g.deriv_mesh)
    half = symbol(spec, g.half_k_sixth, g.half_deriv_mesh)
    assert full.shape == (ncomp,) + g.shape and half.shape == (ncomp,) + g.half_shape
    assert np.array_equal(half, full[..., :cut])
    # a folded matrix with a zero diagonal forces the matrix form, whose
    # diagonal is the decoupled form
    coupling = rng.uniform(-1.0, 1.0, (ncomp, ncomp))
    np.fill_diagonal(coupling, 0.0)
    matrix = symbol(spec, g.half_k_sixth, g.half_deriv_mesh, folded=(coupling,))
    assert matrix.shape == (ncomp, ncomp) + g.half_shape
    assert np.array_equal(np.moveaxis(np.diagonal(matrix, axis1=0, axis2=1), -1, 0), half)
    # a coupled system's matrix form is cut the same way
    coupled = SystemSpec(d, ncomp, pd_diffusion(rng, ncomp),
                         tuple(rng.uniform(-1.0, 1.0, (ncomp, ncomp)) for _ in range(d)))
    full = symbol(coupled, g.k_sixth, g.deriv_mesh)
    assert full.shape == (ncomp, ncomp) + g.shape
    assert np.array_equal(symbol(coupled, g.half_k_sixth, g.half_deriv_mesh), full[..., :cut])


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 8)])
def test_symbol_row_is_the_row_of_the_full_symbol(rng, d, n):
    # half mesh, a folded coupling, and the diagonal form: each row keeps its bits
    g = Grid(d=d, n=n, box=8.0)
    ncomp = 3
    spec = SystemSpec(d, ncomp, np.diag(rng.uniform(0.2, 2.0, ncomp)),
                      tuple(np.diag(rng.uniform(-1.0, 1.0, ncomp)) for _ in range(d)))
    coupling = rng.uniform(-1.0, 1.0, (ncomp, ncomp))
    for folded in ((), (coupling,), (np.diag(np.diag(coupling)),)):
        full = symbol(spec, g.half_k_sixth, g.half_deriv_mesh, folded)
        for k in range(ncomp):
            row = symbol(spec, g.half_k_sixth, g.half_deriv_mesh, folded, row=k)
            want = full[k:k + 1]
            assert row.shape == want.shape and row.tobytes() == want.tobytes()


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("moving", [(), (0,), (2,), (0, 1)])
def test_symbol_never_reads_the_mesh_of_an_axis_without_transport(rng, coupled, moving):
    # NaN on every axis with T[j] = 0 must not reach the symbol, full or row form
    g = Grid(d=3, n=8, box=8.0)
    ncomp = 2
    diff = pd_diffusion(rng, ncomp) if coupled else np.diag(rng.uniform(0.5, 2.0, ncomp))
    gammas = [np.zeros((ncomp, ncomp)) for _ in range(3)]
    for j in moving:
        gammas[j][0, 0], gammas[j][1, 1] = 0.5 + j, -0.3
        if coupled:
            gammas[j][0, 1] = 0.9
    spec = SystemSpec(3, ncomp, diff, tuple(gammas))
    for k_sixth, mesh in ((g.k_sixth, g.deriv_mesh), (g.half_k_sixth, g.half_deriv_mesh)):
        blind = [xi if j in moving else np.full_like(xi, np.nan) for j, xi in enumerate(mesh)]
        for row in (None, 0, 1):
            want = symbol(spec, k_sixth, mesh, row=row)
            got = symbol(spec, k_sixth, blind, row=row)
            assert np.all(np.isfinite(got)) and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# matrix exponential


def test_matrix_exp_against_scipy(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ours = matrix_exp_batch(m)
        ref = scipy.linalg.expm(m)
        assert np.abs(ours - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


def test_matrix_exp_defective_matrix():
    # nilpotent block: exp is I + N, eigendecomposition would fail
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = matrix_exp_batch(n)
    assert np.allclose(out, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-14)
    stiff = np.array([[-50.0, 1.0], [0.0, -50.0]])
    assert np.abs(matrix_exp_batch(stiff) - scipy.linalg.expm(stiff)).max() < 1e-14


def test_matrix_exp_batch_shapes(rng):
    ms = rng.standard_normal((2, 2, 3, 4))
    out = matrix_exp_batch(ms)
    assert out.shape == (2, 2, 3, 4)
    assert np.abs(out[..., 1, 2] - scipy.linalg.expm(ms[..., 1, 2])).max() < 1e-12


def _exp_modes_first(ms):
    """matrix_exp_batch on a stack held (M, N, N), the layout of the reference."""
    return np.ascontiguousarray(np.moveaxis(matrix_exp_batch(np.moveaxis(ms, 0, -1)), -1, 0))


def _exp_stack(rng, n):
    """Matrices of every regime the exponential meets, N x N each.

    Zero matrices; random ones with 1-norms below and across theta_13;
    diffusion-like -c * (I + a E_01) whose running squares underflow to
    zero; transport-like -c * I + i * x * T, T symmetric off-diagonal, large x.
    """
    def normed(scale, count):
        m = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        return m * (scale / np.abs(m).sum(axis=-2).max(axis=-1))[:, None, None]

    jordan = np.eye(n)
    if n > 1:
        jordan[0, 1] = 1.3
    off = np.zeros((n, n))
    off[n - 1, 0] = off[0, n - 1] = 0.9
    c = np.geomspace(1.0, 1e8, 40)[:, None, None]
    x = np.linspace(-200.0, 200.0, 40)[:, None, None]
    return np.concatenate([
        np.zeros((3, n, n)),
        normed(rng.uniform(1e-3, 5.0, 30), 30),
        normed(rng.uniform(5.0, 40.0, 30), 30),
        -c * jordan,
        -np.geomspace(1e-2, 50.0, 40)[:, None, None] * np.eye(n) + 1j * x * off,
    ]).astype(complex)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matrix_exp_matches_blas_product_reference(rng, n):
    # the component-major products differ from BLAS zgemm only in rounding,
    # and every exactly-zero result stays exactly zero
    ms = _exp_stack(rng, n)
    ref = matrix_exp_reference(ms)
    out = _exp_modes_first(ms)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert np.all(np.abs(out - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    assert np.array_equal(out == 0, ref == 0)
    assert np.any(ref == 0) and np.any(ref[:, 0, 0] == 0)
    # the input stack is never written, also when it is a single matrix
    one = np.moveaxis(ms[-1:], 0, -1).copy()
    matrix_exp_batch(one)
    assert np.array_equal(one, np.moveaxis(ms[-1:], 0, -1))


def _gershgorin_log_norm(ms):
    """max_i Re a_ii + sum_{j != i} |a_ij + conj(a_ji)| / 2 for each matrix of (M, N, N)."""
    n = ms.shape[-1]
    h = np.abs(ms + np.conj(np.swapaxes(ms, -1, -2))) / 2.0
    h[:, np.arange(n), np.arange(n)] = 0.0
    return (np.diagonal(ms, axis1=-2, axis2=-1).real + h.sum(axis=-1)).max(axis=-1)


def _near_threshold_stack(n):
    """N x N matrices whose Gershgorin log-norm bound runs from -900 to -700.

    Normal ones, -c I + i x S with S real symmetric (bound -c exactly), and
    non-normal ones, -c I + t E with E the nilpotent shift (bound -c + t for
    N >= 3, -c + t/2 for N = 2).
    """
    bounds = np.linspace(-900.0, -700.0, 81)[:, None, None]
    sym = np.ones((n, n)) - np.eye(n) if n > 1 else np.ones((1, 1))
    shift = np.eye(n, k=1)
    reach = {1: 0.0, 2: 0.5}.get(n, 1.0)
    stacks = [bounds * np.eye(n) + 1j * x * sym for x in (0.0, 3.7, 250.0)]
    stacks += [(bounds - reach * t) * np.eye(n) + t * shift for t in (1.0, 40.0)]
    return np.concatenate(stacks).astype(complex)


def _spy_pade(monkeypatch):
    """Record every stack matrix_exp_batch gets (with its result) and every solve's batch size."""
    stacks, solved = [], []
    real_solve, real_exp = np.linalg.solve, spectral.matrix_exp_batch

    def solve(a, b):
        solved.append(a.shape[0])
        return real_solve(a, b)

    def exp(ms):
        stacks.append((ms, real_exp(ms)))
        return stacks[-1][1]

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(spectral, "matrix_exp_batch", exp)
    return stacks, solved


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matrix_exp_near_the_underflow_threshold(monkeypatch, n):
    # matrix_exp_batch skips no matrix: one solve sees the whole stack.  On
    # both sides of the -800 threshold values and zeros match the reference,
    # and below it every entry is an exact zero, so a build may skip such modes
    ms = _near_threshold_stack(n)
    bound = _gershgorin_log_norm(ms)
    assert bound.min() == pytest.approx(-900.0) and bound.max() == pytest.approx(-700.0)
    _, solved = _spy_pade(monkeypatch)
    out = _exp_modes_first(ms)
    monkeypatch.undo()
    ref = matrix_exp_reference(ms)
    assert np.all(np.abs(out - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    assert np.array_equal(out == 0, ref == 0)
    assert np.any(ref[bound >= -800.0] == 0) and np.any(ref != 0)
    assert solved == [len(ms)]
    assert np.all(out[bound < -800.0] == 0)


@pytest.mark.parametrize("d", [2, 3])
def test_matrix_exp_runs_the_pade_only_on_live_sweep_symbols(monkeypatch, d):
    # the benchmark sweep's coupled builds: few modes escape the underflow
    # bound, and only those are assembled and reach the Pade, in one solve
    if d == 2:
        kind, g = DiffusionViolation(k=0, j=1, a=1.3), Grid(d=2, n=256, box=4.4)
    else:
        kind, g = TransportViolation(k=1, j=0, axis=1, gamma=-1.2), Grid(d=3, n=64, box=2.2)
    spec = kind.system(d)
    dt = default_t_probe(spec, g)
    stacks, solved = _spy_pade(monkeypatch)
    exps = build_propagator(spec, g, dt).exps
    monkeypatch.undo()
    ((ms, out),) = stacks
    live = spectral._gershgorin_bounds(spec, g, dt, ()).ravel() >= -800.0
    assert ms.shape == (2, 2, np.count_nonzero(live)) and solved == [np.count_nonzero(live)]
    assert np.count_nonzero(live) <= {2: 0.03, 3: 0.06}[d] * live.size
    # the stack is the full symbol's live modes, and it holds every mode whose
    # assembled matrix has a Gershgorin bound of -800 or more
    full = (dt * symbol(spec, g.half_k_sixth, g.half_deriv_mesh)).reshape(2, 2, -1)
    assert np.array_equal(ms, full[..., live])
    assert np.all(live[_gershgorin_log_norm(np.moveaxis(full, -1, 0)) >= -800.0])
    ms, out = (np.moveaxis(a, -1, 0) for a in (ms, out))
    ref = matrix_exp_reference(ms)
    assert np.all(np.abs(out - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    assert np.array_equal(out == 0, ref == 0)
    # the table is the all-mode exponential, with exact zeros on every skipped mode
    assert np.array_equal(exps, matrix_exp_batch(full).reshape(exps.shape))


@pytest.mark.parametrize(("d", "ncomp"), [(d, n) for d in (1, 2, 3) for n in (2, 3, 4)])
def test_mode_bound_is_at_least_the_gershgorin_bound_of_every_assembled_mode(d, ncomp):
    # the bound from per-row constants is never below the row bound of the
    # assembled dt * M, so every mode the Pade could make nonzero is kept
    rng = np.random.default_rng(100 * d + ncomp)
    g = Grid(d=d, n={1: 64, 2: 16, 3: 8}[d], box=float(rng.uniform(2.0, 8.0)))
    gammas = [rng.uniform(-2.0, 2.0, (ncomp, ncomp)) for _ in range(d)]
    if d > 1:
        gammas[0] = np.zeros((ncomp, ncomp))  # an axis without transport
    lin = rng.uniform(-3.0, 3.0, (ncomp, ncomp))
    for folded in ((), (lin,)):
        reaction = PolynomialReaction.from_matrix(lin) if folded else None
        spec = SystemSpec(d, ncomp, pd_diffusion(rng, ncomp), tuple(gammas), reaction)
        for dt in (1e-5, 3e-2, 10.0):
            bound = spectral._gershgorin_bounds(spec, g, dt, folded)
            m = dt * symbol(spec, g.half_k_sixth, g.half_deriv_mesh, folded)
            gersh = _gershgorin_log_norm(np.moveaxis(m.reshape(ncomp, ncomp, -1), -1, 0))
            assert bound.shape == g.half_shape and np.all(np.isfinite(bound))
            # both sides round sums of O(N) terms; allow 4 ulps of the terms' size
            size = dt * (g.half_k_sixth * np.abs(spec.diffusion).sum() + sum(
                np.abs(xi) * np.abs(t).sum() for xi, t in zip(g.half_deriv_mesh, gammas))
                + sum(np.abs(f).sum() for f in folded))
            assert np.all(bound.ravel() >= gersh - 4 * np.finfo(float).eps * size.ravel())


def test_non_finite_matrices_are_never_skipped():
    # a NaN or inf entry gives NaN, also -inf on a diagonal with the other
    # rows far below -800, and the build reports it
    dead = [[-2000.0, 0.5], [0.0, -2000.0]]
    ms = np.array([
        [[-np.inf, 0.5], [0.0, -2000.0]],
        [[-2000.0, np.nan], [0.0, -2000.0]],
        [[-2000.0, 0.0], [np.inf, -2000.0]],
        dead,
    ], dtype=complex)
    out = _exp_modes_first(ms)
    assert np.all(np.isnan(out[:3]))
    assert np.array_equal(out[3], np.zeros((2, 2))) and not np.signbit(out[3].view(float)).any()
    # through the build: dt * M overflows to -inf on a diagonal, to inf off it, or
    # to NaN (dt times an inf imaginary part), and the build reports it.  At
    # dt = 1e4 every mode holding such an entry has a mode bound far below -800,
    # or one that does not see it (the antisymmetric part of A, the symmetric
    # part of T): the build still assembles every mode and reports it
    g = Grid(d=1, n=16, box=8.0)
    coupled = np.array([[1.0, 0.5], [0.0, 1.0]])
    overflowing = [
        SystemSpec(1, 2, np.eye(2), zero_transport(1, 2),
                   PolynomialReaction.from_matrix([[1e308, 0.5], [0.0, 1.0]])),
        SystemSpec(1, 2, np.eye(2), zero_transport(1, 2),
                   PolynomialReaction.from_matrix([[1.0, -1e308], [0.0, 1.0]])),
        SystemSpec(1, 2, np.eye(2), (np.array([[0.0, 1e308], [0.0, 0.0]]),)),
        SystemSpec(1, 2, np.eye(2), (np.array([[0.0, 1e308], [1e308, 0.0]]),)),
        SystemSpec(1, 2, [[1e308, 0.5], [0.0, 1.0]], zero_transport(1, 2)),
        SystemSpec(1, 2, [[1.0, 1e308], [-1e308, 1.0]], zero_transport(1, 2)),
        SystemSpec(1, 2, coupled, zero_transport(1, 2),
                   PolynomialReaction.from_matrix([[1.0, 1e308], [0.0, 1.0]])),
    ]
    for spec in overflowing:
        for dt in (10.0, 1e4):
            with pytest.raises(PropagatorOverflowError):
                build_propagator(spec, g, dt)


@pytest.mark.xfail(strict=True, reason=(
    "overscaling: s comes from the 1-norm, so a nilpotent matrix of norm dt is squared "
    "about log2(dt) times and each squaring doubles the Pade's rounding error"))
@pytest.mark.parametrize("dt", [1e10, 1e20])
def test_nilpotent_mode_exponential_is_exact_at_any_dt(dt):
    # the zero mode of F_k = u_j folded in is dt * [[0, -1], [0, 0]], whose
    # exponential is I + dt * N; scaling chosen by ||A^k||^(1/k) (Al-Mohy and
    # Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009) takes no squaring here
    prop = build_propagator(ReactionViolation().system(1), Grid(1, 256, 4.0), dt)
    assert np.array_equal(prop.exps[..., 0], [[1.0, -dt], [0.0, 1.0]]), prop.exps[..., 0]


@pytest.mark.xfail(strict=True, reason=(
    "overscaling: s comes from the 1-norm, so a nilpotent matrix of norm dt is squared "
    "about log2(dt) times and each squaring doubles the Pade's rounding error"))
@pytest.mark.parametrize("dt", [1e10, 1e20])
def test_matrix_exp_batch_of_a_nilpotent_matrix_is_exact_at_any_dt(dt):
    # the same defect as above, on matrix_exp_batch itself, so that it stays
    # pinned whichever path build_propagator takes for that system
    out = matrix_exp_batch(dt * np.array([[0.0, -1.0], [0.0, 0.0]]))
    assert np.array_equal(out, [[1.0, -dt], [0.0, 1.0]]), out


# ---------------------------------------------------------------------------
# propagator


def test_propagator_identity_at_zero_mode(rng):
    g = Grid(d=1, n=16, box=8.0)
    spec = SystemSpec(1, 2, pd_diffusion(rng, 2), (rng.uniform(-1, 1, (2, 2)),))
    prop = build_propagator(spec, g, dt=0.01)
    assert np.array_equal(prop.exps[..., 0], np.eye(2))


def _half(grid, mesh):
    """A full-layout mesh cut to the half spectrum (last axis m = 0..n/2)."""
    return mesh[..., : grid.n // 2 + 1]


def test_propagator_scalar_formula():
    g = Grid(d=1, n=16, box=8.0)
    a, gam, dt = 0.7, 0.3, 0.05
    spec = SystemSpec(1, 1, [[a]], ([[gam]],))
    prop = build_propagator(spec, g, dt)
    assert prop.exps.shape == (1, 9)
    expected = np.exp(dt * (-a * _half(g, g.k_sixth) + 1j * gam * _half(g, g.deriv_mesh[0])))
    assert np.abs(prop.exps[0] - expected).max() < 1e-12


def test_propagator_diagonal_system_stays_diagonal():
    # a diagonal system is stored as N decoupled tables, each exactly the
    # table of its own scalar system
    g = Grid(d=1, n=16, box=8.0)
    spec = SystemSpec(1, 2, np.diag([1.0, 2.0]), (np.diag([0.5, -0.5]),))
    prop = build_propagator(spec, g, 0.01)
    assert prop.decoupled and prop.exps.shape == (2,) + g.half_shape
    for k, (a, gam) in enumerate([(1.0, 0.5), (2.0, -0.5)]):
        alone = build_propagator(SystemSpec(1, 1, [[a]], ([[gam]],)), g, 0.01)
        assert np.array_equal(prop.exps[k], alone.exps[0])


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("fold", [False, True])
def test_decoupled_propagator_matches_matrix_exp(rng, d, n, fold):
    g = Grid(d=d, n=n, box=8.0)
    ncomp = 3
    diff = np.diag(rng.uniform(0.2, 2.0, ncomp))
    gammas = tuple(np.diag(rng.uniform(-1.0, 1.0, ncomp)) for _ in range(d))
    lin = np.diag(rng.uniform(-1.0, 1.0, ncomp))
    # a linear reaction is folded into the propagator; F = 0 folds zeros
    reaction = PolynomialReaction.from_matrix(lin) if fold else None
    spec = SystemSpec(d, ncomp, diff, gammas, reaction)
    dt = 2e-3
    prop = build_propagator(spec, g, dt)
    assert prop.decoupled
    symbol = -_half(g, g.k_sixth)[..., None, None] * diff.astype(complex)
    for axis, gam in enumerate(gammas):
        symbol = symbol + 1j * _half(g, g.deriv_mesh[axis])[..., None, None] * gam
    if fold:
        symbol = symbol - lin
    exps = matrix_exp_batch(np.moveaxis(dt * symbol, (-2, -1), (0, 1)))
    ref = np.diagonal(exps, axis1=0, axis2=1)
    assert np.abs(np.moveaxis(prop.exps, 0, -1) - ref).max() < 1e-12


def test_diagonal_transport_with_coupled_linear_reaction_is_coupled(rng):
    g = Grid(d=2, n=16, box=8.0)
    lin = np.array([[1.0, 0.5], [0.0, 1.0]])
    spec = SystemSpec(2, 2, np.diag([1.0, 2.0]), (np.diag([0.5, -0.5]), np.eye(2)),
                      PolynomialReaction.from_matrix(lin))
    twin = SystemSpec(2, 2, spec.diffusion, spec.transport)
    assert build_propagator(twin, g, 0.01).decoupled
    folded = build_propagator(spec, g, 0.01)
    assert not folded.decoupled
    assert folded.exps.shape == (2, 2) + g.half_shape
    assert np.abs(folded.exps[0, 1]).max() > 0.0


def _coupled_case(rng, case):
    """(spec, grid) for one coupled system: the coupling sits where `case` says."""
    d, ncomp = {"D1": (1, 2), "D2": (2, 2), "D3": (3, 2), "T3axis0": (3, 2), "T3last": (3, 2),
                "T2both": (2, 2), "L2": (2, 2), "N3": (2, 3)}[case]
    g = Grid(d=d, n={1: 64, 2: 32, 3: 16}[d], box=8.0)
    diff = np.diag(rng.uniform(0.5, 2.0, ncomp))
    gammas = [np.diag(rng.uniform(-1.0, 1.0, ncomp)) for _ in range(d)]
    reaction = None
    if case.startswith("D"):
        diff[0, 1] = 0.7
    elif case == "T3axis0":
        gammas[0][1, 0] = -0.9
    elif case == "T3last":
        gammas[2][0, 1] = 1.1
    elif case == "T2both":
        gammas[0][0, 1], gammas[1][1, 0] = 0.6, -0.4
    elif case == "L2":
        reaction = PolynomialReaction.from_matrix(np.array([[0.3, 0.5], [0.0, -0.2]]))
    else:
        diff, gammas[1] = pd_diffusion(rng, ncomp), rng.uniform(-1.0, 1.0, (ncomp, ncomp))
    return SystemSpec(d, ncomp, diff, tuple(gammas), reaction), g


@pytest.mark.parametrize("case", ["D1", "D2", "D3", "T3axis0", "T3last", "T2both", "L2", "N3"])
def test_coupled_propagator_is_matrix_exp_of_every_mode(rng, case):
    # the table is exactly the per-mode exponential of every half-spectrum symbol
    spec, g = _coupled_case(rng, case)
    dt = 3e-3
    lin = spec.reaction.linear_matrix()
    folded = (lin,) if lin.any() else ()
    want = matrix_exp_batch(dt * symbol(spec, g.half_k_sixth, g.half_deriv_mesh, folded))
    exps = build_propagator(spec, g, dt).exps
    assert exps.shape == (spec.ncomp,) * 2 + g.half_shape
    assert exps.dtype == want.dtype and np.array_equal(exps, want)


@pytest.mark.parametrize("case", ["D2", "T3last", "L2", "N3"])
def test_coupled_build_exponentiates_every_mode_in_one_batch(monkeypatch, rng, case):
    # one Pade batch and one solve hold exactly the modes whose bound is -800
    # or more; every other mode of the table is +0.0
    spec, g = _coupled_case(rng, case)
    dt = 3e-3
    lin = spec.reaction.linear_matrix()
    folded = (lin,) if lin.any() else ()
    stacks, solved = _spy_pade(monkeypatch)
    exps = build_propagator(spec, g, dt).exps
    monkeypatch.undo()
    live = spectral._gershgorin_bounds(spec, g, dt, folded) >= -800.0
    # N3's random D is not diagonally dominant: Gershgorin then proves no mode dead
    assert 0 < np.count_nonzero(live) and (np.count_nonzero(live) < live.size) == (case != "N3")
    assert [ms.shape for ms, _ in stacks] == [(spec.ncomp,) * 2 + (np.count_nonzero(live),)]
    assert solved == [np.count_nonzero(live)]
    dead = exps[:, :, ~live]
    assert np.all(dead == 0) and not (np.signbit(dead.real).any() or np.signbit(dead.imag).any())


def test_propagator_semigroup(rng):
    g = Grid(d=1, n=32, box=8.0)
    spec = SystemSpec(1, 2, pd_diffusion(rng, 2), (rng.uniform(-1, 1, (2, 2)),))
    p1 = build_propagator(spec, g, 5e-4)
    p2 = build_propagator(spec, g, 1e-3)
    e1, e2 = (np.moveaxis(p.exps, (0, 1), (-2, -1)) for p in (p1, p2))
    assert np.abs(np.matmul(e1, e1) - e2).max() < 1e-10


def test_propagator_spectral_radius_bound(rng):
    g = Grid(d=2, n=16, box=8.0)
    sym = rng.uniform(-1, 1, (2, 2))
    spec = SystemSpec(2, 2, pd_diffusion(rng, 2), ((sym + sym.T) / 2, np.eye(2)))
    prop = build_propagator(spec, g, 1e-3)
    eigs = np.linalg.eigvals(np.moveaxis(prop.exps.reshape(2, 2, -1), -1, 0))
    assert np.abs(eigs).max() <= 1.0 + 1e-9


def test_propagator_folds_linear_reaction():
    g = Grid(d=1, n=16, box=8.0)
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1), PolynomialReaction.from_matrix([[2.0]]))
    twin = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1))
    dt = 0.1
    plain = build_propagator(twin, g, dt)
    folded = build_propagator(spec, g, dt)
    # scalar symbol commutes, so folding L multiplies every mode by exp(-L dt)
    want = plain.exps[0] * np.exp(-2.0 * dt)
    assert np.abs(folded.exps[0] - want).max() < 1e-12


def test_propagator_leaves_polynomial_reaction_out():
    # only a linear reaction belongs to the linear flow; IF-RK4 handles the rest
    g = Grid(d=1, n=16, box=8.0)
    spec = SystemSpec(1, 1, [[1.0]], ([[0.3]],), PolynomialReaction((((1.0, (2,)),),)))
    twin = SystemSpec(1, 1, [[1.0]], ([[0.3]],))
    exps, twin_exps = build_propagator(spec, g, 0.1).exps, build_propagator(twin, g, 0.1).exps
    assert exps.dtype == twin_exps.dtype and np.array_equal(exps, twin_exps)


def test_propagator_overflow_detected():
    g = Grid(d=1, n=16, box=8.0)
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1), PolynomialReaction.from_matrix([[-800.0]]))
    with pytest.raises(PropagatorOverflowError):
        build_propagator(spec, g, 1.0)
    # the coupled table is checked the same way
    spec = SystemSpec(1, 2, np.eye(2), zero_transport(1, 2),
                      PolynomialReaction.from_matrix([[-800.0, 1.0], [0.0, -800.0]]))
    with pytest.raises(PropagatorOverflowError):
        build_propagator(spec, g, 1.0)


def test_propagator_rejects_negative_dt():
    g = Grid(d=1, n=16, box=8.0)
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1))
    with pytest.raises(ValueError):
        build_propagator(spec, g, -0.1)


def test_parseval(rng):
    g = Grid(d=2, n=16, box=8.0)
    u = Field(g, rng.standard_normal((2, 16, 16)))
    c = _fft(u)
    quad = np.sum(u.values**2) * g.spacing**g.d
    spectral = (np.abs(c) ** 2).sum() * g.spacing**g.d / g.size
    assert quad == pytest.approx(spectral, rel=1e-10)
