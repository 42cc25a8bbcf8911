import json
import warnings

import numpy as np
import pytest

from trilap import (
    ConfigError,
    DimensionMismatchError,
    Field,
    Grid,
    PolynomialReaction,
    PositivityError,
    SystemSpec,
    ZeroReaction,
    load_grid,
    load_system,
)

from conftest import pd_diffusion, zero_transport
from oracles import full_spectral_meshes, polynomial_reaction_full


VALID_CFG = {
    "d": 1,
    "N": 1,
    "A": [[1.0]],
    "Gamma": [[[0.0]]],
    "reaction": {"kind": "zero"},
    "grid": {"n": 16, "box": 8.0},
}


def test_load_minimal_valid_system():
    spec = load_system(json.dumps(VALID_CFG))
    assert spec.d == 1 and spec.ncomp == 1
    assert spec.diffusion[0, 0] == 1.0
    assert isinstance(spec.reaction, ZeroReaction)


def test_positivity_violation_names_eigenvalue():
    cfg = dict(VALID_CFG, N=2, A=[[-1.0, 0.0], [0.0, -1.0]], Gamma=[[[0, 0], [0, 0]]])
    with pytest.raises(PositivityError) as exc:
        load_system(json.dumps(cfg))
    assert exc.value.min_eigenvalue == pytest.approx(-1.0)
    assert "-1" in str(exc.value)


@pytest.mark.parametrize("a", [
    # (D + D^T)/2 overflows to -inf and NaN; a finite D must still be judged
    [[-1.7e308, 0.0], [0.0, 1.0]],
    [[1.0, 1.7e308], [1.7e308, 1.0]],
    # positive definite, but the largest eigenvalue (2.5e308) is not a float
    [[1.5e308, 1e308], [1e308, 1.5e308]],
])
def test_positivity_check_survives_overflow(a):
    cfg = dict(VALID_CFG, N=2, A=a, Gamma=[[[0, 0], [0, 0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityError) as exc:
            load_system(json.dumps(cfg))
    assert not exc.value.min_eigenvalue > 0.0


def test_transport_count_must_match_dimension():
    cfg = dict(VALID_CFG, d=2, N=2, A=[[1, 0], [0, 1]], Gamma=[[[0, 0], [0, 0]]])
    with pytest.raises(DimensionMismatchError):
        load_system(json.dumps(cfg))


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        load_system('{"d": 1,\n "N": }')


@pytest.mark.parametrize("missing", ["d", "N", "A", "Gamma", "reaction"])
def test_missing_field_is_named(missing):
    cfg = {k: v for k, v in VALID_CFG.items() if k != missing}
    with pytest.raises(ConfigError, match=missing):
        load_system(json.dumps(cfg))


@pytest.mark.parametrize("patch,field", [
    ({"d": "x"}, "d"),
    ({"d": 1.5}, "d"),
    ({"N": "x"}, "N"),
    ({"N": None}, "N"),
])
def test_non_numeric_system_field_is_named(patch, field):
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        load_system(json.dumps(dict(VALID_CFG, **patch)))


@pytest.mark.parametrize("grid,field", [
    ({"box": 8.0}, "grid.n"),
    ({"n": 16}, "grid.box"),
    ({"n": "x", "box": 8.0}, "grid.n"),
    ({"n": 16.5, "box": 8.0}, "grid.n"),
    ({"n": 16, "box": "x"}, "grid.box"),
    ({"n": 16, "box": [8.0]}, "grid.box"),
    ([16, 8.0], "grid"),
])
def test_malformed_grid_field_is_named(grid, field):
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        load_grid(json.dumps(dict(VALID_CFG, grid=grid)))


def test_non_numeric_d_is_named_by_load_grid():
    with pytest.raises(ConfigError, match="field 'd'"):
        load_grid(json.dumps(dict(VALID_CFG, d="x")))


def test_integral_float_fields_load():
    text = json.dumps(dict(VALID_CFG, d=1.0, N=1.0, grid={"n": 16.0, "box": 8}))
    assert load_system(text).d == 1
    assert load_grid(text) == Grid(d=1, n=16, box=8.0)


def test_linear_reaction_side_checked():
    cfg = dict(VALID_CFG, reaction={"kind": "linear", "L": [[1, 0], [0, 1]]})
    with pytest.raises(DimensionMismatchError):
        load_system(json.dumps(cfg))


def test_polynomial_exponent_length_checked():
    cfg = dict(VALID_CFG, reaction={"kind": "polynomial",
                                    "terms": [[{"coeff": 1.0, "exponents": [1, 2]}]]})
    with pytest.raises(DimensionMismatchError):
        load_system(json.dumps(cfg))


def test_unknown_reaction_kind():
    cfg = dict(VALID_CFG, reaction={"kind": "table"})
    with pytest.raises(ConfigError, match="kind"):
        load_system(json.dumps(cfg))


@pytest.mark.parametrize("n", [7, 12, 4])
def test_grid_requires_power_of_two_at_least_eight(n):
    with pytest.raises(ConfigError):
        Grid(d=1, n=n, box=8.0)


def test_grid_rejects_bad_box_and_dimension():
    with pytest.raises(ConfigError):
        Grid(d=1, n=16, box=-1.0)
    with pytest.raises(ConfigError):
        Grid(d=4, n=16, box=8.0)


def test_wavenumber_layout():
    g = Grid(d=1, n=16, box=8.0)
    k = g.wavenumbers
    assert np.count_nonzero(k == 0.0) == 1
    assert k[1] == pytest.approx(2 * np.pi / 8.0)
    assert k[-1] == pytest.approx(-2 * np.pi / 8.0)
    # Nyquist zeroed only in the derivative table
    assert k[8] != 0.0
    assert g.deriv_wavenumbers[8] == 0.0


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 8)])
def test_spectral_meshes_broadcast_to_the_full_meshgrid_arrays(d, n):
    # each derivative mesh is one axis vector shaped (1, ..., n, ..., 1); it
    # broadcasts to the full np.meshgrid array bit for bit, and |xi|^6 and the
    # dealiasing mask are the full arrays they always were
    g = Grid(d=d, n=n, box=8.0)
    for half, shape in ((False, g.shape), (True, g.half_shape)):
        k6, deriv, mask = full_spectral_meshes(g, half)
        got_k6, got = (g.half_k_sixth, g.half_deriv_mesh) if half else (g.k_sixth, g.deriv_mesh)
        assert got_k6.shape == shape and got_k6.tobytes() == k6.tobytes()
        assert len(got) == d
        for axis, (xi, want) in enumerate(zip(got, deriv)):
            assert xi.shape == tuple(m if i == axis else 1 for i, m in enumerate(shape))
            assert np.broadcast_to(xi, shape).tobytes() == want.tobytes()
        if half:
            assert g.half_dealias_mask.shape == shape
            assert np.array_equal(g.half_dealias_mask, mask)


def test_validated_spec_has_positive_symmetrized_spectrum(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        spec = SystemSpec(1, n, pd_diffusion(rng, n), zero_transport(1, n))
        assert spec.symmetrized_min_eigenvalue > 0.0


# ---------------------------------------------------------------------------
# immutability and validation


def test_field_rejects_nonfinite(grid1d):
    bad = np.ones((1, 64))
    bad[0, 3] = np.inf
    with pytest.raises(ConfigError):
        Field(grid1d, bad)


def test_field_rejects_wrong_shape(grid1d):
    with pytest.raises(DimensionMismatchError):
        Field(grid1d, np.ones((1, 32)))


def test_arrays_are_readonly(grid1d):
    u = Field(grid1d, np.ones((1, 64)))
    with pytest.raises(ValueError):
        u.values[0, 0] = 2.0
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1))
    with pytest.raises(ValueError):
        spec.diffusion[0, 0] = 5.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_coord_mesh_is_broadcastable_axes(d):
    g = Grid(d=d, n=8, box=4.0)
    axes = g.coord_mesh
    assert [x.shape for x in axes] == [(1,) * i + (8,) + (1,) * (d - 1 - i) for i in range(d)]
    assert not any(x.flags.writeable for x in axes)
    dense = np.meshgrid(*(g.axis_coords,) * d, indexing="ij")
    for x, m in zip(np.broadcast_arrays(*axes), dense):
        assert np.array_equal(x, m)
        assert m[g.origin_index] == 0.0


def test_reaction_evaluations():
    zero = ZeroReaction()
    assert np.array_equal(zero.evaluate(np.ones((2, 4))), np.zeros((2, 4)))
    lin = PolynomialReaction.from_matrix([[2.0, -1.0], [-1.0, 2.0]])
    out = lin.evaluate(np.ones((2, 4)))
    assert np.allclose(out, 1.0)
    logistic = PolynomialReaction((((1.0, (2,)), (-1.0, (1,))),))
    assert logistic.evaluate(np.zeros((1, 4))) == pytest.approx(np.zeros((1, 4)))
    assert logistic.evaluate(np.full((1, 1), 3.0))[0, 0] == pytest.approx(6.0)


def test_linear_matrix_decides_exact_linearity():
    assert np.array_equal(ZeroReaction().linear_matrix(2), np.zeros((2, 2)))
    L = [[0.5, -1.0], [0.0, 2.0]]
    assert np.array_equal(PolynomialReaction.from_matrix(L).linear_matrix(2), L)
    # equal exponents merge by adding their coefficients
    merged = PolynomialReaction((((1.5, (0, 1)), (2.0, (1, 0)), (-0.5, (0, 1))), ()))
    assert np.array_equal(merged.linear_matrix(2), [[2.0, 1.0], [0.0, 0.0]])
    empty = PolynomialReaction(((), ()))
    assert np.array_equal(empty.linear_matrix(2), np.zeros((2, 2)))
    for reaction in (ZeroReaction(), PolynomialReaction.from_matrix(L), merged, empty):
        assert not reaction.linear_matrix(2).flags.writeable
    # any term of degree 0 or >= 2 rules linearity out, whatever its coefficient
    for term in ((1.0, (0, 0)), (0.0, (0, 0)), (1.0, (1, 1)), (1.0, (0, 2)), (0.0, (2, 0))):
        mixed = PolynomialReaction((((1.0, (1, 0)),), ((-1.0, (0, 1)), term)))
        assert mixed.linear_matrix(2) is None, term


def test_from_matrix_gives_back_the_matrix_byte_for_byte(rng):
    # one degree-1 term per nonzero entry, in column order
    for n in range(1, 7):
        L = rng.uniform(-1.0, 1.0, (n, n))
        L[rng.random((n, n)) < 0.3] = 0.0
        reaction = PolynomialReaction.from_matrix(L)
        assert [[expo.index(1) for _, expo in comp] for comp in reaction.terms] == [
            list(np.flatnonzero(row)) for row in L]
        assert reaction.linear_matrix(n).tobytes() == L.tobytes()
    # -0.0 has no term, so its entry reads +0.0
    signed = PolynomialReaction.from_matrix([[1.0, -0.0], [0.0, -2.0]])
    assert signed.terms == (((1.0, (1, 0)),), ((-2.0, (0, 1)),))
    assert signed.linear_matrix(2).tobytes() == np.array([[1.0, 0.0], [0.0, -2.0]]).tobytes()


def test_polynomial_evaluate_has_the_same_bits_on_transposed_input(rng):
    # the audit evaluates its face samples, stored (P, N), as the transposed view (N, P)
    mixed = PolynomialReaction((((0.3, (2, 1, 0)), (-1.0, (1, 0, 0))), ((1.7, (0, 3, 1)),),
                                ((-0.4, (1, 1, 1)), (1.0, (0, 0, 2)), (2.5, (0, 0, 0)))))
    linear = [PolynomialReaction.from_matrix(rng.uniform(-1.0, 1.0, (n, n))) for n in range(2, 7)]
    for reaction in [*linear, mixed]:
        view = rng.uniform(0.0, 10.0, (257, len(reaction.terms))).T
        assert not view.flags.c_contiguous
        got = reaction.evaluate(view)
        assert got.tobytes() == reaction.evaluate(np.ascontiguousarray(view)).tobytes()


def test_linear_matrix_of_a_degree_one_polynomial_reproduces_its_evaluation():
    rng = np.random.default_rng(31)
    terms = tuple(
        tuple((float(rng.uniform(-2, 2)), tuple(int(c == l) for c in range(3)))
              for l in rng.integers(0, 3, 4))
        for _ in range(3)
    )
    reaction = PolynomialReaction(terms)
    values = rng.uniform(-3, 3, (3, 5, 7))
    got = np.einsum("kj,j...->k...", reaction.linear_matrix(3), values)
    assert np.abs(got - reaction.evaluate(values)).max() <= 1e-13


@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_polynomial_evaluation_matches_full_array_oracle(ncomp):
    rng = np.random.default_rng(7 + ncomp)
    # every exponent 0..3 on every component, plus a constant term per component
    terms = tuple(
        ((float(rng.uniform(-2, 2)), (0,) * ncomp),)
        + tuple(
            (float(rng.uniform(-2, 2)), tuple(int(e) for e in rng.integers(0, 4, ncomp)))
            for _ in range(6)
        )
        + tuple((float(rng.uniform(-2, 2)), (e,) * ncomp) for e in range(4))
        for _ in range(ncomp)
    )
    reaction = PolynomialReaction(terms)
    values = rng.uniform(-3, 3, (ncomp, 5, 7))
    values[:, 0, :3] = [0.0, -0.0, 1e120]
    got = reaction.evaluate(values)
    want = polynomial_reaction_full(reaction, values)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_polynomial_evaluation_keeps_the_bits_of_the_term_loop():
    # coefficients 1 and -1 skip their multiplication; every bit stays as the
    # term loop that starts each product from its coefficient computes it,
    # inf and NaN included
    terms = (
        ((1.0, (2, 0)), (-1.0, (1, 0)), (0.5, (1, 1)), (0.0, (3, 1)), (1.0, (0, 0)),
         (-1.0, (1, 2)), (1.0, (1, 1)), (-1.0, (0, 0)), (0.3, (1, 2))),
        ((-1.0, (1, 1)), (1.0, (0, 2)), (-0.5, (2, 1)), (0.5, (0, 0)), (0.0, (0, 0)),
         (1.0, (0, 1)), (-1.0, (2, 2))),
    )
    reaction = PolynomialReaction(terms)
    values = np.random.default_rng(17).uniform(-3, 3, (2, 6, 9))
    specials = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1e200, -1e200, 5e-324]
    values[0, 0] = specials
    values[1, 1] = specials
    values[1, 2] = specials[::-1]
    assert reaction.evaluate(values).tobytes() == polynomial_reaction_full(
        reaction, values).tobytes()


@pytest.mark.parametrize("exponent,ok", [(1024, True), (1025, False), (1e308, False)])
def test_polynomial_exponents_are_capped(exponent, ok):
    cfg = dict(VALID_CFG, reaction={"kind": "polynomial",
                                    "terms": [[{"coeff": 1.0, "exponents": [exponent]}]]})
    if ok:
        assert load_system(json.dumps(cfg)).reaction.terms[0][0][1] == (exponent,)
    else:
        with pytest.raises(ConfigError, match=r"'reaction.terms\[0\]\[0\].exponents'.*at most 1024"):
            load_system(json.dumps(cfg))
