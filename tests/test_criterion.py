from pathlib import Path

import numpy as np
import pytest

from trilap import (
    PolynomialReaction,
    SystemSpec,
    ZeroReaction,
    audit,
    check_assumption_offdiag_nonneg,
    check_diagonality,
    check_reaction_boundary_sign,
    load_system,
)
from trilap.criterion import (
    RULE_REACTION,
    RULE_REACTION_INDETERMINATE,
    SignSampler,
)

from conftest import zero_transport
from oracles import (
    check_essentially_nonpositive,
    face_points_loop,
    reaction_boundary_sign_flagged_loop,
    reaction_boundary_sign_per_sample,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_diagonal_system(rng, d=None, ncomp=None, linear=True):
    d = d if d is not None else int(rng.integers(1, 4))
    ncomp = ncomp if ncomp is not None else int(rng.integers(1, 5))
    diff = np.diag(rng.uniform(0.1, 2.0, ncomp))
    gammas = tuple(np.diag(rng.uniform(-1.0, 1.0, ncomp)) for _ in range(d))
    if linear:
        off = rng.uniform(-1.0, 0.0, (ncomp, ncomp))
        np.fill_diagonal(off, rng.uniform(-1.0, 1.0, ncomp))
        reaction = PolynomialReaction.from_matrix(off)
    else:
        reaction = ZeroReaction()
    return SystemSpec(d, ncomp, diff, gammas, reaction)


def test_assumption_check_examples():
    assert check_assumption_offdiag_nonneg(np.eye(2)) == []
    viol = check_assumption_offdiag_nonneg([[1.0, -0.5], [0.0, 1.0]])
    assert len(viol) == 1 and viol[0].site == {"matrix": "A", "row": 0, "col": 1}
    assert check_assumption_offdiag_nonneg([[1.0, 0.5], [0.3, 1.0]]) == []


def test_diagonality_examples():
    assert check_diagonality(np.diag([1.0, 2.0])) == []
    v = check_diagonality([[1.0, 1e-3], [0.0, 1.0]])
    assert len(v) == 1 and v[0].value == pytest.approx(1e-3)
    assert check_diagonality([[1.0, 1e-3], [0.0, 1.0]], tol=1e-2) == []
    rot = check_diagonality([[0.0, 1.0], [-1.0, 0.0]], matrix_id="Gamma[0]")
    assert len(rot) == 2 and all(x.rule == "diag-Gamma" for x in rot)
    with pytest.raises(ValueError):
        check_diagonality(np.eye(2), tol=-1.0)
    with pytest.raises(ValueError):
        check_diagonality([[1.0, 1e-3], [0.0, 1.0]], tol=float("nan"))


def test_boundary_sign_zero_reaction_clean():
    assert check_reaction_boundary_sign(ZeroReaction(), 3) == []


def test_boundary_sign_linear_examples():
    ok = PolynomialReaction.from_matrix([[1.0, -1.0], [-1.0, 1.0]])
    assert check_reaction_boundary_sign(ok, 2) == []
    bad = PolynomialReaction.from_matrix([[1.0, 1.0], [0.0, 1.0]])
    found = check_reaction_boundary_sign(bad, 2)
    assert found and all(v.rule == RULE_REACTION for v in found)
    assert any(v.site["component"] == 0 for v in found)
    # a unit-vector sample pins the offending column
    unit_hits = [v for v in found
                 if v.site["component"] == 0 and np.count_nonzero(v.site["sample"]) == 1]
    assert unit_hits and all(v.site["sample"][1] > 0 for v in unit_hits)


def test_boundary_sign_overflow_is_indeterminate():
    # F_0 = -(u_1)^501: overflows at the scale-10 samples, never positive
    react = PolynomialReaction((((-1.0, (0, 501)),), ()))
    found = check_reaction_boundary_sign(react, 2)
    kinds = {v.rule for v in found}
    assert kinds == {RULE_REACTION_INDETERMINATE}


def test_essentially_nonpositive_examples():
    assert check_essentially_nonpositive([[3.0, 0.0], [0.0, -1.0]]) == []
    v = check_essentially_nonpositive([[0.0, 2.0], [0.0, 0.0]])
    assert len(v) == 1 and v[0].site == {"matrix": "L", "row": 0, "col": 1}


def test_linear_boundary_sign_agrees_with_essential_nonpositivity(rng):
    sampler = SignSampler(samples_per_component=16, seed=3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        L = rng.uniform(-1.0, 1.0, (n, n))
        exact = bool(check_essentially_nonpositive(L))
        reaction = PolynomialReaction.from_matrix(L)
        sampled = bool(check_reaction_boundary_sign(reaction, n, sampler))
        assert exact == sampled


def test_audit_passes_logistic_diagonal():
    logistic = PolynomialReaction(
        (((1.0, (2, 0)), (-1.0, (1, 0))), ((1.0, (0, 2)), (-1.0, (0, 1)))))
    spec = SystemSpec(1, 2, np.diag([1.0, 0.5]), (np.diag([0.2, -0.3]),), logistic)
    report = audit(spec)
    assert report.overall and report.diffusion_ok and report.transport_ok and report.reaction_ok
    assert report.warnings == ()


def test_audit_fails_on_offdiagonal_diffusion():
    spec = SystemSpec(1, 2, [[1.0, 1.0], [0.0, 1.0]], zero_transport(1, 2))
    report = audit(spec)
    assert not report.overall and not report.diffusion_ok
    assert report.transport_ok and report.reaction_ok
    sites = [v.site for v in report.violations]
    assert {"matrix": "A", "row": 0, "col": 1} in sites
    assert report.warnings == ()  # positive off-diagonal satisfies the premise


def test_audit_fails_on_offdiagonal_transport():
    gam = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = SystemSpec(1, 2, np.eye(2), (gam,))
    report = audit(spec)
    assert not report.overall and not report.transport_ok and report.diffusion_ok
    rules = {v.rule for v in report.violations}
    assert rules == {"diag-Gamma"}


def test_audit_negative_offdiagonal_warns_and_fails():
    spec = SystemSpec(1, 2, [[1.0, -0.5], [0.0, 1.0]], zero_transport(1, 2))
    report = audit(spec)
    assert not report.overall
    assert any(w.rule == "assumption-akl" for w in report.warnings)


def test_audit_pure(rng):
    spec = make_diagonal_system(rng)
    sampler = SignSampler(samples_per_component=32, seed=11)
    assert audit(spec, sampler).to_dict() == audit(spec, sampler).to_dict()


def test_audit_random_diagonal_systems_pass_and_corruptions_fail(rng):
    sampler = SignSampler(samples_per_component=32, seed=5)
    for _ in range(50):
        spec = make_diagonal_system(rng)
        assert audit(spec, sampler).overall
    for _ in range(50):
        spec = make_diagonal_system(rng)
        n = spec.ncomp
        if n == 1:
            continue
        k, j = rng.choice(n, size=2, replace=False)
        target = rng.integers(0, 2 + spec.d)
        if target == 0:
            diff = spec.diffusion.copy()
            diff[k, j] = rng.uniform(0.1, 0.9) * np.sqrt(diff[k, k] * diff[j, j])
            corrupted = SystemSpec(spec.d, n, diff, spec.transport, spec.reaction)
            want = {"matrix": "A", "row": int(k), "col": int(j)}
        elif target == 1:
            L = spec.reaction.linear_matrix(n).copy()
            L[k, j] = rng.uniform(0.1, 1.0)
            corrupted = SystemSpec(spec.d, n, spec.diffusion, spec.transport,
                                   PolynomialReaction.from_matrix(L))
            want = None  # located through the reaction sampler instead
        else:
            i = int(target - 2)
            gams = [g.copy() for g in spec.transport]
            gams[i][k, j] = rng.uniform(-1.0, 1.0) or 0.5
            corrupted = SystemSpec(spec.d, n, spec.diffusion, tuple(gams), spec.reaction)
            want = {"matrix": f"Gamma[{i}]", "row": int(k), "col": int(j)}
        report = audit(corrupted, sampler)
        assert not report.overall
        if want is not None:
            assert want in [v.site for v in report.violations]
        else:
            hits = [v for v in report.violations
                    if v.rule == RULE_REACTION and v.site["component"] == k
                    and np.count_nonzero(v.site["sample"]) == 1
                    and v.site["sample"][j] > 0]
            assert hits


def test_sampler_validation_and_faces():
    with pytest.raises(ValueError):
        SignSampler(samples_per_component=0)
    pts = SignSampler(samples_per_component=8, seed=1).face_points(3, 1)
    assert np.all(pts[:, 1] == 0.0)
    assert np.all(pts >= 0.0)
    assert np.any(np.all(pts == 0.0, axis=1))  # origin included


def _rows(violations):
    # repr pins each value bit for bit and lets NaN equal NaN
    return [(v.rule, v.site, repr(v.value)) for v in violations]


def _assert_matches_per_sample_oracle(reaction, ncomp, seed):
    sampler = SignSampler(seed=seed)
    got = check_reaction_boundary_sign(reaction, ncomp, sampler)
    assert _rows(got) == _rows(reaction_boundary_sign_per_sample(reaction, ncomp, sampler))
    return got


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_reaction_sign_matches_per_sample_oracle_on_configs(config, seed):
    spec = load_system(config.read_text())
    _assert_matches_per_sample_oracle(spec.reaction, spec.ncomp, seed)


@pytest.mark.parametrize("seed", [0, 7])
def test_reaction_sign_matches_per_sample_oracle_on_flagged_samples(seed):
    # a face term u_j in F_0: every sample with u_j > 0 is a witness
    face = PolynomialReaction((((-1.0, (1, 0, 0)), (0.5, (0, 1, 0))), (), ()))
    got = _assert_matches_per_sample_oracle(face, 3, seed)
    assert {v.rule for v in got} == {RULE_REACTION}
    # u_1^400 overflows to inf at the 10.0 scale; minus u_2^400 gives inf - inf = NaN
    overflow = PolynomialReaction((((1.0, (0, 400, 0)),), (), ()))
    nan = PolynomialReaction((((1.0, (0, 400, 0)), (-1.0, (0, 0, 400))), (), ()))
    corner = np.array([[0.0], [10.0], [10.0]])
    assert np.isinf(overflow.evaluate(corner)[0, 0]) and np.isnan(nan.evaluate(corner)[0, 0])
    for reaction in (overflow, nan):
        got = _assert_matches_per_sample_oracle(reaction, 3, seed)
        assert {v.rule for v in got} == {RULE_REACTION, RULE_REACTION_INDETERMINATE}
    # some sampled witnesses overflow in both terms, so their value is NaN, not inf
    assert any(min(v.site["sample"][1:]) > 6.0
               for v in got if v.rule == RULE_REACTION_INDETERMINATE)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_face_points_match_loop_oracle_bytes(seed):
    for ncomp in range(1, 8):
        for k in range(ncomp):
            sampler = SignSampler(samples_per_component=16, seed=seed)
            got = sampler.face_points(ncomp, k)
            want = face_points_loop(sampler, ncomp, k)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (ncomp, k)


@pytest.mark.parametrize("seed", [0, 7])
def test_reaction_sign_matches_flagged_loop_oracle(seed):
    sampler = SignSampler(seed=seed)
    overflow = PolynomialReaction((((1.0, (0, 400, 0)),), (), ()))
    specs = [load_system(c.read_text()) for c in sorted(CONFIGS.glob("*.json"))]
    cases = [(spec.reaction, spec.ncomp) for spec in specs] + [(overflow, 3)]
    for reaction, ncomp in cases:
        got = check_reaction_boundary_sign(reaction, ncomp, sampler)
        assert _rows(got) == _rows(reaction_boundary_sign_flagged_loop(reaction, ncomp, sampler))
    assert RULE_REACTION_INDETERMINATE in {v.rule for v in got}
