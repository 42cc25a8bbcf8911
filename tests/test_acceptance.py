"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np

from trilap import (
    Field,
    Grid,
    PolynomialReaction,
    SystemSpec,
    audit,
    build_diffusion_probe,
    run,
    run_violation_experiment,
)
from trilap.criterion import RULE_REACTION, SignSampler, check_reaction_boundary_sign
from trilap.probes import (
    DiffusionViolation,
    Mollifier,
    ReactionViolation,
    TransportViolation,
    lap3_at_origin,
    ode_reduction_check,
)
from trilap.stepper import RunConfig

from conftest import pd_diffusion, zero_transport
from oracles import (
    check_essentially_nonpositive,
    initial_rate_field,
    mode_exponential_step,
    repaired_system,
    scalar_decay_solution,
)


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# Refinement families for the probe identity: n doubles while the box and
# the mollifier radii widen with it, holding |xi|_max inside the window
# where neither ramp truncation nor the |xi|^6 roundoff floor bites.  Each
# family starts at the criterion's stated desk-scale resolution.
PROBE_REFINEMENT = {
    1: [(256, 6.0, 0.10, 0.80), (512, 12.0, 0.10, 0.90), (1024, 24.0, 0.10, 1.30)],
    2: [(128, 2.2, 0.05, 0.50), (256, 4.4, 0.05, 0.60), (512, 8.8, 0.05, 0.90)],
    3: [(64, 1.1, 0.03, 0.30), (128, 2.2, 0.03, 0.50), (256, 4.4, 0.03, 0.90)],
}


def test_criterion_1_probe_identity():
    t0 = time.time()
    details = []
    ok = True
    for d, stages in PROBE_REFINEMENT.items():
        errs = []
        for n, box, r0, r1 in stages:
            grid = Grid(d, n, box)
            probe = build_diffusion_probe(grid, 1.0, Mollifier(r0, r1))
            val = lap3_at_origin(probe)
            errs.append(abs(val + d**3) / d**3)
        monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        ok = ok and monotone and errs[-1] <= 0.02
        details.append(f"d={d}: errors {errs[0]:.2e}->{errs[1]:.2e}->{errs[2]:.2e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report(1, ok, "; ".join(details) + f"; runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_diffusion_eps_scaling():
    t0 = time.time()
    grid = Grid(1, 512, 4.0)
    rep = run_violation_experiment(DiffusionViolation(), (1.0, 0.5, 0.25), grid)
    elapsed = time.time() - t0
    slope = rep.fitted_slope
    ok = slope is not None and abs(slope + 6.0) <= 1.2 and elapsed < 60.0
    _report(2, ok, f"fitted slope {slope:.3f} (want -6 +- 1.2); runtime {elapsed:.1f}s")


def test_criterion_3_transport_eps_scaling():
    t0 = time.time()
    grid = Grid(1, 512, 4.0)
    rep = run_violation_experiment(TransportViolation(), (1.0, 0.5, 0.25), grid)
    elapsed = time.time() - t0
    slope = rep.fitted_slope
    ok = slope is not None and abs(slope + 1.0) <= 0.2 and elapsed < 60.0
    _report(3, ok, f"fitted slope {slope:.4f} (want -1 +- 0.2); runtime {elapsed:.1f}s")


def test_criterion_4_negativity_certificates():
    grid = Grid(1, 512, 4.0)
    eps = (1.0, 0.5, 0.25)
    details = []
    ok = True
    for kind in (DiffusionViolation(), TransportViolation(), ReactionViolation()):
        rep = run_violation_experiment(kind, eps, grid)
        worst = min(rep.min_after_t_probe)
        certified = rep.min_after_t_probe[-1] < -1e-8 and rep.negativity_observed
        # control: repaired system's rate at every zero of the pinned component
        spec = repaired_system(kind, grid.d)
        probe = kind.probe(grid, eps[-1])
        vals = np.zeros((spec.ncomp,) + grid.shape)
        vals[kind.j] = probe.values[0]
        rate = initial_rate_field(spec, Field(grid, vals))
        control = float(rate.values[kind.k].min())
        ok = ok and certified and control >= -1e-10
        details.append(f"{kind.label}: min {worst:.2e}, repaired rate min {control:.1e}")
    _report(4, ok, "; ".join(details))


def test_criterion_5_linear_oracle_equivalence():
    rng = np.random.default_rng(1905)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(1, 3))
        ncomp = int(rng.integers(1, 4))
        n = int(rng.choice([16, 32, 64]))
        grid = Grid(d, n, 16.0)
        diffusion = pd_diffusion(rng, ncomp)
        gammas = tuple(rng.uniform(-1, 1, (ncomp, ncomp)) for _ in range(d))
        reaction = None
        if trial % 2 == 0:
            reaction = PolynomialReaction.from_matrix(rng.uniform(-1, 1, (ncomp, ncomp)))
        spec = SystemSpec(d, ncomp, diffusion, gammas, reaction)
        u0 = Field(grid, rng.standard_normal((ncomp,) + grid.shape))
        dt = 2e-6
        ts = run(spec, u0, RunConfig(t_end=dt, dt=dt))
        oracle = mode_exponential_step(spec, grid, u0.values, dt)
        worst = max(worst, float(np.abs(ts.final_state.values - oracle).max()))
    _report(5, worst < 1e-10, f"50 systems, worst one-step deviation {worst:.2e} (< 1e-10)")


def test_criterion_6_maximum_principle_failure():
    grid = Grid(1, 256, 32.0)
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1))
    x = grid.axis_coords
    u0 = Field(grid, np.exp(-0.5 * (x / 0.8) ** 2)[None])
    assert u0.values[0].min() >= 0.0
    t_end = 0.1
    ts = run(spec, u0, RunConfig(t_end=t_end, dt=t_end / 8, output_stride=1))
    minimum = ts.final_state.values[0].min()
    oracle = scalar_decay_solution(grid, u0.values[0], t_end)
    agreement = float(np.abs(ts.final_state.values[0] - oracle).max())
    ok = minimum < 0.0 and agreement < 1e-10
    _report(6, ok, f"min after t={t_end} is {minimum:.3e} (< 0), oracle gap {agreement:.1e} (< 1e-10)")


def _random_diagonal_system(rng):
    d = int(rng.integers(1, 4))
    ncomp = int(rng.integers(2, 5))
    diffusion = np.diag(rng.uniform(0.1, 2.0, ncomp))
    gammas = tuple(np.diag(rng.uniform(-1.0, 1.0, ncomp)) for _ in range(d))
    L = rng.uniform(-1.0, 0.0, (ncomp, ncomp))
    np.fill_diagonal(L, rng.uniform(-1.0, 1.0, ncomp))
    return SystemSpec(d, ncomp, diffusion, gammas, PolynomialReaction.from_matrix(L))


def test_criterion_7_audit_property_suite():
    rng = np.random.default_rng(73)
    sampler = SignSampler(samples_per_component=32, seed=9)
    passed = sum(audit(_random_diagonal_system(rng), sampler).overall for _ in range(200))

    located = 0
    for _ in range(200):
        spec = _random_diagonal_system(rng)
        ncomp = spec.ncomp
        k, j = (int(v) for v in rng.choice(ncomp, size=2, replace=False))
        choice = int(rng.integers(0, 2 + spec.d))
        if choice == 0:
            diffusion = spec.diffusion.copy()
            # stay below 2*sqrt(a_kk a_jj) so the corrupted matrix keeps A+A^T > 0
            diffusion[k, j] = float(rng.uniform(0.1, 0.9)
                                    * np.sqrt(diffusion[k, k] * diffusion[j, j]))
            corrupted = SystemSpec(spec.d, ncomp, diffusion, spec.transport, spec.reaction)
            report = audit(corrupted, sampler)
            hit = {"matrix": "A", "row": k, "col": j} in [v.site for v in report.violations]
        elif choice == 1:
            L = spec.reaction.linear_matrix().copy()
            L[k, j] = float(rng.uniform(0.1, 1.0))
            corrupted = SystemSpec(spec.d, ncomp, spec.diffusion, spec.transport,
                                   PolynomialReaction.from_matrix(L))
            report = audit(corrupted, sampler)
            hit = any(
                v.rule == RULE_REACTION and v.site["component"] == k
                and np.count_nonzero(v.site["sample"]) == 1 and v.site["sample"][j] > 0
                for v in report.violations)
        else:
            axis = choice - 2
            gammas = [g.copy() for g in spec.transport]
            gammas[axis][k, j] = float(rng.uniform(0.1, 1.0)) * (1 if rng.random() < 0.5 else -1)
            corrupted = SystemSpec(spec.d, ncomp, spec.diffusion, tuple(gammas), spec.reaction)
            report = audit(corrupted, sampler)
            hit = {"matrix": f"Gamma[{axis}]", "row": k, "col": j} in [v.site for v in report.violations]
        located += (not report.overall) and hit

    agree = 0
    eq_sampler = SignSampler(samples_per_component=16, seed=4)
    for _ in range(1000):
        ncomp = int(rng.integers(1, 5))
        L = rng.uniform(-1.0, 1.0, (ncomp, ncomp))
        exact = bool(check_essentially_nonpositive(L))
        reaction = PolynomialReaction.from_matrix(L)
        sampled = any(v.rule == RULE_REACTION
                      for v in check_reaction_boundary_sign(reaction, ncomp, eq_sampler))
        agree += exact == sampled
    ok = passed == 200 and located == 200 and agree == 1000
    _report(7, ok, f"{passed}/200 clean pass, {located}/200 corruptions located, "
                   f"{agree}/1000 linear-equivalence agreements")


def test_criterion_8_ode_reduction_and_conservation():
    logistic = PolynomialReaction(
        (((1.0, (2, 0)), (-1.0, (1, 0))), ((1.0, (0, 2)), (-1.0, (0, 1)))))
    dev_logistic = ode_reduction_check(logistic, np.array([0.7, 0.3]), 1.0, 1 / 128).max_deviation
    L = np.array([[0.6, -0.4], [-0.2, 0.9]])
    dev_linear = ode_reduction_check(PolynomialReaction.from_matrix(L), np.array([1.0, 0.5]),
                                     1.0, 1 / 128).max_deviation

    rng = np.random.default_rng(515)
    worst_drift, energy_ok = 0.0, True
    for _ in range(20):
        d = int(rng.integers(1, 3))
        ncomp = int(rng.integers(1, 4))
        n = 32 if d == 1 else 16
        grid = Grid(d, n, 16.0)
        sym = rng.uniform(-1, 1, (ncomp, ncomp))
        gammas = tuple((sym + sym.T) / 2 for _ in range(d))
        spec = SystemSpec(d, ncomp, pd_diffusion(rng, ncomp), gammas)
        u0 = Field(grid, rng.standard_normal((ncomp,) + grid.shape) + 1.5)
        ts = run(spec, u0, RunConfig(t_end=0.1, dt=1e-3, output_stride=1))
        mass = ts.diagnostics[:, :, 2]
        worst_drift = max(worst_drift,
                          float(np.abs(mass - mass[0]).max() / np.abs(mass[0]).max()))
        l2 = np.sqrt((ts.diagnostics[:, :, 3] ** 2).sum(axis=1))
        energy_ok = energy_ok and bool(np.all(np.diff(l2) <= 1e-12))
    ok = dev_logistic <= 1e-8 and dev_linear <= 1e-8 and worst_drift <= 1e-10 and energy_ok
    _report(8, ok, f"ODE deviation logistic {dev_logistic:.1e}, linear {dev_linear:.1e} "
                   f"(<= 1e-8); mass drift {worst_drift:.1e} (<= 1e-10); "
                   f"energy monotone on 20/20 runs: {energy_ok}")
