import warnings

import numpy as np
import pytest

from trilap import (
    ConfigError,
    Field,
    Grid,
    PolynomialReaction,
    RunConfig,
    SystemSpec,
    ZeroReaction,
    build_propagator,
    run,
)
from trilap import probes, spectral, stepper

from conftest import pd_diffusion, zero_transport
from oracles import if_rk4_two_tables, mode_exponential_step, scalar_decay_solution

LOGISTIC = PolynomialReaction((((1.0, (2,)), (-1.0, (1,))),))


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(t_end=1.0, dt=2.0)
    with pytest.raises(ConfigError, match=r"t_end=1 at dt=1e-07 takes 1e\+07 steps, more than"):
        RunConfig(t_end=1.0, dt=1e-7)
    with pytest.raises(ConfigError, match="t_end=1 at dt=4.94066e-324 takes inf steps"):
        RunConfig(t_end=1.0, dt=5e-324)
    assert RunConfig(t_end=1.0, dt=1e-6).n_steps == 1_000_000
    with pytest.raises(ConfigError):
        RunConfig(t_end=1.0, dt=0.3)
    with pytest.raises(ConfigError):
        RunConfig(t_end=1.0, dt=0.1, output_stride=0)
    assert RunConfig(t_end=1.0, dt=0.125).n_steps == 8


def test_single_harmonic_decay(scalar_heat_spec, grid1d):
    k = 2 * np.pi * 2 / grid1d.box
    x = grid1d.axis_coords
    u = Field(grid1d, np.cos(k * x)[None])
    dt = 0.01
    out = run(scalar_heat_spec, u, RunConfig(t_end=dt, dt=dt)).final_state
    assert np.abs(out.values - np.exp(-(k**6) * dt) * u.values).max() < 1e-12


def test_zero_dt_propagator_is_identity_step(scalar_heat_spec, grid1d, rng):
    u = Field(grid1d, rng.standard_normal((1, 64)))
    prop = build_propagator(scalar_heat_spec, grid1d, 0.0)
    half = np.fft.rfftn(u.values, axes=(1,))
    out = np.fft.irfftn(prop.apply(half), s=grid1d.shape, axes=(1,))
    assert np.abs(out - u.values).max() < 1e-13


def test_linear_step_matches_eigendecomposition_oracle(rng):
    grid = Grid(d=1, n=64, box=16.0)
    spec = SystemSpec(1, 2, pd_diffusion(rng, 2), (rng.uniform(-1, 1, (2, 2)),),
                      PolynomialReaction.from_matrix(rng.uniform(-1, 1, (2, 2))))
    u0 = Field(grid, rng.standard_normal((2, 64)))
    dt = 1e-4
    ts = run(spec, u0, RunConfig(t_end=dt, dt=dt))
    oracle = mode_exponential_step(spec, grid, u0.values, dt)
    assert np.abs(ts.final_state.values - oracle).max() < 1e-10


@pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
def test_coupled_run_matches_full_complex_oracle(rng, d, n):
    grid = Grid(d=d, n=n, box=8.0)
    spec = SystemSpec(d, 2, pd_diffusion(rng, 2),
                      tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(d)),
                      PolynomialReaction.from_matrix(rng.uniform(-1, 1, (2, 2))))
    # a checkerboard puts energy at the Nyquist mode of every axis
    nyquist = (-1.0) ** np.indices(grid.shape).sum(axis=0)
    u0 = Field(grid, rng.standard_normal((2,) + grid.shape) + np.stack([nyquist, -nyquist]))
    dt = 1e-4
    ts = run(spec, u0, RunConfig(t_end=dt, dt=dt))
    oracle = mode_exponential_step(spec, grid, u0.values, dt)
    assert np.abs(ts.final_state.values - oracle).max() < 1e-10


def test_each_run_builds_one_propagator_table(build_calls, grid1d):
    calls = build_calls
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1), LOGISTIC)
    u0 = Field(grid1d, (0.5 + 0.1 * np.cos(2 * np.pi * grid1d.axis_coords / 16.0))[None])
    rc = RunConfig(t_end=0.02, dt=0.01)
    first = run(spec, u0, rc)
    assert [c[2] for c in calls] == [0.005]  # the half step only
    again = run(spec, u0, rc)
    assert len(calls) == 2  # no table outlives its run
    assert np.array_equal(first.final_state.values, again.final_state.values)
    run(spec, u0, RunConfig(t_end=0.02, dt=0.02))
    assert len(calls) == 3 and calls[-1][2] == 0.01
    linear = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1))
    run(linear, u0, rc)
    assert len(calls) == 4 and calls[-1][2] == 0.01  # an exact step builds exp(dt M)


# F for two components: every coefficient kind (1, -1, other) and a cross term
TWO_SPECIES = PolynomialReaction((
    ((1.0, (2, 0)), (-1.0, (1, 0)), (0.5, (1, 1))),
    ((-0.4, (1, 1)), (0.8, (0, 1)), (-1.0, (0, 2)), (0.25, (0, 0))),
))


def polynomial_system(rng, d, coupled):
    diffusion = pd_diffusion(rng, 2)
    transport = [rng.uniform(-1, 1, (2, 2)) for _ in range(d)]
    if not coupled:
        diffusion = np.diag(np.diag(diffusion))
        transport = [np.diag(np.diag(g)) for g in transport]
    return SystemSpec(d, 2, diffusion, tuple(transport), TWO_SPECIES)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("dealias", [True, False])
def test_if_rk4_matches_the_two_table_form(rng, d, coupled, dealias):
    # E = E2 E2 regroups the classical stages onto the half-step table alone;
    # the two forms agree to rounding
    spec = polynomial_system(rng, d, coupled)
    grid = Grid(d=d, n=16 if d < 3 else 8, box=8.0)
    u0 = Field(grid, 0.5 + 0.1 * rng.standard_normal((2,) + grid.shape))
    rc = RunConfig(t_end=6e-3, dt=1e-3, dealias=dealias)
    got = run(spec, u0, rc).final_state.values
    want = if_rk4_two_tables(spec, u0, rc)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("coupled", [False, True])
def test_if_rk4_applies_one_half_step_table_four_times_per_step(rng, monkeypatch, build_calls,
                                                                coupled):
    from trilap.spectral import ModePropagator

    applied = []
    real = ModePropagator.apply

    def counting(self, coeffs):
        applied.append(self)
        return real(self, coeffs)

    monkeypatch.setattr(ModePropagator, "apply", counting)
    spec = polynomial_system(rng, 2, coupled)
    grid = Grid(d=2, n=16, box=8.0)
    u0 = Field(grid, 0.5 + 0.1 * rng.standard_normal((2,) + grid.shape))
    n = 7
    ts = run(spec, u0, RunConfig(t_end=n * 1e-3, dt=1e-3))
    assert not ts.blown_up
    assert [c[2] for c in build_calls] == [5e-4]
    assert len(applied) == 4 * n and all(p is applied[0] for p in applied)


def test_evaluate_reaction_examples():
    ones = np.ones((2, 64))
    assert np.array_equal(ZeroReaction().evaluate(ones), np.zeros((2, 64)))
    lin = PolynomialReaction.from_matrix([[2.0, -1.0], [-1.0, 2.0]])
    assert np.allclose(lin.evaluate(ones), 1.0)
    assert np.array_equal(LOGISTIC.evaluate(np.zeros((1, 64))), np.zeros((1, 64)))


def test_evaluate_reaction_overflow(grid1d):
    u = Field(grid1d, np.full((1, 64), 10.0))
    blowy = PolynomialReaction((((1.0, (400,)),),))
    assert not np.all(np.isfinite(blowy.evaluate(u.values)))
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1), blowy)
    ts = run(spec, u, RunConfig(t_end=0.02, dt=0.01))
    assert ts.blown_up and ts.blowup_step == 1
    assert np.array_equal(ts.final_state.values, u.values) and ts.final_t == 0.0


def test_reaction_overflow_at_stage_2_is_caught_at_its_step(grid1d):
    # F(u0) = 1e308 is finite, so stage 1's reaction passes; its transform
    # overflows, so the stage-2 state and its reaction are not.  The post-step
    # check reports the step.
    u = Field(grid1d, np.full((1, 64), 10.0))
    blowy = PolynomialReaction((((1.0, (308,)),),))
    assert np.all(np.isfinite(blowy.evaluate(u.values.copy())))
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1), blowy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = run(spec, u, RunConfig(t_end=0.02, dt=0.01))
    assert ts.blown_up and ts.blowup_step == 1
    assert np.array_equal(ts.times, [0.0]) and ts.final_t == 0.0
    assert np.array_equal(ts.final_state.values, u.values)
    assert np.array_equal(ts.diagnostics, stepper._diagnostics_row(u.values, grid1d)[None])


def test_state_that_overflows_in_one_step_is_caught_without_a_warning(grid1d):
    # exactly linear growth by exp(700) ~ 1e304 sends the low modes of a 1e11
    # bump to inf; transforming that state back is inside the step's errstate
    u = Field(grid1d, (1e11 * np.exp(-grid1d.axis_coords**2))[None])
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1),
                      PolynomialReaction.from_matrix([[-700.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = run(spec, u, RunConfig(t_end=2.0, dt=1.0))
    assert ts.blown_up and ts.blowup_step == 1 and ts.final_t == 0.0


def test_mass_conserved_without_reaction(rng):
    grid = Grid(d=1, n=32, box=16.0)
    spec = SystemSpec(1, 2, pd_diffusion(rng, 2), (rng.uniform(-1, 1, (2, 2)),))
    u0 = Field(grid, rng.standard_normal((2, 32)) + 2.0)
    ts = run(spec, u0, RunConfig(t_end=0.1, dt=0.001, output_stride=1))
    mass = ts.diagnostics[:, :, 2]
    assert np.abs(mass - mass[0]).max() <= 1e-10 * np.abs(mass[0]).max()


def test_energy_decay_symmetric_transport(rng):
    grid = Grid(d=1, n=32, box=16.0)
    sym = rng.uniform(-1, 1, (2, 2))
    spec = SystemSpec(1, 2, pd_diffusion(rng, 2), ((sym + sym.T) / 2,))
    u0 = Field(grid, rng.standard_normal((2, 32)))
    ts = run(spec, u0, RunConfig(t_end=0.05, dt=5e-4, output_stride=1))
    l2 = np.sqrt((ts.diagnostics[:, :, 3] ** 2).sum(axis=1))
    assert np.all(np.diff(l2) <= 1e-12)


def test_constant_data_matches_homogeneous_ode():
    grid = Grid(d=1, n=8, box=32.0)
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1), LOGISTIC)
    u0 = Field(grid, np.full((1, 8), 0.7))
    dt = 1.0 / 64.0
    ts = run(spec, u0, RunConfig(t_end=1.0, dt=dt, output_stride=1))
    # classical RK4 on u' = u - u^2, written out independently
    y = 0.7
    for step, t in enumerate(ts.times[:-1]):
        rhs = lambda v: v - v * v
        k1 = rhs(y)
        k2 = rhs(y + dt / 2 * k1)
        k3 = rhs(y + dt / 2 * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert abs(ts.diagnostics[step + 1, 0, 0] - y) < 1e-8


def test_gaussian_develops_negative_minimum(scalar_heat_spec):
    grid = Grid(d=1, n=256, box=32.0)
    x = grid.axis_coords
    u0 = Field(grid, np.exp(-0.5 * (x / 0.8) ** 2)[None])
    assert u0.values[0].min() >= 0.0
    t_end = 0.1
    ts = run(scalar_heat_spec, u0, RunConfig(t_end=t_end, dt=t_end / 8, output_stride=1))
    assert ts.final_state.values[0].min() < -1e-3
    oracle = scalar_decay_solution(grid, u0.values[0], t_end)
    assert np.abs(ts.final_state.values[0] - oracle).max() < 1e-10


def test_rk4_observed_order():
    grid = Grid(d=1, n=32, box=64.0)
    x = grid.axis_coords
    u0 = Field(grid, (0.4 + 0.2 * np.exp(-0.5 * (x / 4) ** 2))[None])
    spec = SystemSpec(1, 1, [[0.5]], zero_transport(1, 1), LOGISTIC)
    t_end = 0.8
    ref = run(spec, u0, RunConfig(t_end=t_end, dt=t_end / 640, output_stride=640)).final_state.values
    errs = []
    for steps in (10, 20, 40):
        st = run(spec, u0, RunConfig(t_end=t_end, dt=t_end / steps, output_stride=steps))
        errs.append(np.abs(st.final_state.values - ref).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.7


def test_determinism_bit_identical(rng):
    grid = Grid(d=1, n=32, box=16.0)
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1), LOGISTIC)
    u0 = Field(grid, (0.5 + 0.1 * np.cos(2 * np.pi * grid.axis_coords / 16.0))[None])
    rc = RunConfig(t_end=0.25, dt=1 / 128, output_stride=4)
    a = run(spec, u0, rc)
    b = run(spec, u0, rc)
    assert np.array_equal(a.diagnostics, b.diagnostics)
    assert a.to_csv() == b.to_csv()


BLOWUP_GRID = Grid(d=1, n=16, box=16.0)


def test_blowup_flagged_with_partial_series():
    # F = -u^2 so du/dt = +u^2: finite-time blow-up from positive data; from
    # u = 2 it passes 1e12 during step 33 at dt 1/64, whatever the stride
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1),
                      PolynomialReaction((((-1.0, (2,)),),)))
    u0 = Field(BLOWUP_GRID, np.full((1, 16), 2.0))
    for stride in (1, 4, 8, 16):
        ts = run(spec, u0, RunConfig(t_end=2.0, dt=1 / 64, output_stride=stride))
        assert ts.blown_up and ts.blowup_step == 33, stride
        assert ts.final_t == 32 // stride * stride / 64
        assert np.all(np.isfinite(ts.final_state.values))
        assert len(ts.times) == len(ts.diagnostics)


@pytest.mark.parametrize("value", [1e308, -1e13])
@pytest.mark.parametrize("reaction", [LOGISTIC, ZeroReaction()])
def test_initial_data_past_the_blow_up_threshold_is_rejected_before_any_transform(
        transform_calls, value, reaction):
    # transforming 1e308 overflows; no numpy warning may escape before the step loop
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1), reaction)
    vals = np.full((1, 16), 0.5)
    vals[0, 3] = value
    with pytest.raises(ConfigError, match="blow-up threshold"):
        run(spec, Field(BLOWUP_GRID, vals), RunConfig(t_end=0.1, dt=0.1))
    assert transform_calls == {"rfftn": 0, "irfftn": 0}


@pytest.fixture
def transform_calls(monkeypatch):
    """Counts of the trilap.spectral.rfftn and irfftn calls made during the test.

    Each is counted in spectral and in every module that imports it.
    """
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        real = getattr(spectral, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (spectral, stepper, probes):
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("stride", [1, 3])
def test_if_rk4_transform_count(transform_calls, stride):
    # one inverse transform per stage and state: stage 1 reuses the samples
    # that the previous step's blow-up check and record computed
    grid = Grid(d=2, n=16, box=16.0)
    spec = SystemSpec(2, 1, [[1.0]], zero_transport(2, 1), LOGISTIC)
    x, y = grid.coord_mesh
    u0 = Field(grid, (0.5 + 0.1 * np.cos(np.pi * x / 8) * np.cos(np.pi * y / 8))[None])
    n = 9
    ts = run(spec, u0, RunConfig(t_end=n / 64, dt=1 / 64, output_stride=stride))
    assert len(ts.times) == 1 + -(-n // stride) and not ts.blown_up
    assert transform_calls == {"rfftn": 4 * n + 1, "irfftn": 4 * n + 1}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("coupled", [False, True])
def test_degree_one_polynomial_steps_like_its_linear_twin(rng, transform_calls, d, coupled):
    mats = [rng.uniform(-1, 1, (2, 2)) for _ in range(d + 1)]
    diffusion = pd_diffusion(rng, 2)
    if not coupled:
        mats = [np.diag(np.diag(m)) for m in mats]
        diffusion = np.diag(np.diag(diffusion))
    L = mats[0]
    terms = tuple(
        tuple((float(L[k, l]), (int(l == 0), int(l == 1))) for l in range(2)) for k in range(2)
    )
    grid = Grid(d=d, n=16 if d < 3 else 8, box=8.0)
    u0 = Field(grid, rng.standard_normal((2,) + grid.shape))
    n = 4
    rc = RunConfig(t_end=n * 1e-3, dt=1e-3)
    twin = PolynomialReaction.from_matrix(L)  # the config spelling {"kind": "linear", "L": L}
    linear = run(SystemSpec(d, 2, diffusion, tuple(mats[1:]), twin), u0, rc)
    calls = dict(transform_calls)
    poly = run(SystemSpec(d, 2, diffusion, tuple(mats[1:]), PolynomialReaction(terms)), u0, rc)
    # the polynomial takes the exact step as well: one forward transform, one inverse per step
    assert {k: transform_calls[k] - calls[k] for k in calls} == {"rfftn": 1, "irfftn": n}
    assert np.abs(poly.final_state.values - linear.final_state.values).max() <= 1e-12
    assert np.abs(poly.diagnostics - linear.diagnostics).max() <= 1e-12


@pytest.mark.parametrize("term", [(0.5, (0, 0)), (0.0, (0, 0)), (-1.0, (1, 1)), (0.0, (2, 0))])
def test_polynomial_with_a_term_not_of_degree_one_takes_if_rk4(transform_calls, term):
    grid = Grid(d=1, n=16, box=16.0)
    reaction = PolynomialReaction((((1.0, (0, 1)), term), ((-0.5, (1, 0)),)))
    spec = SystemSpec(1, 2, np.eye(2), zero_transport(1, 2), reaction)
    x = grid.axis_coords
    u0 = Field(grid, np.stack([0.5 + 0.1 * np.cos(np.pi * x / 8), 0.3 + 0.1 * np.sin(np.pi * x / 8)]))
    n = 5
    rc = RunConfig(t_end=n / 64, dt=1 / 64)
    first = run(spec, u0, rc)
    assert transform_calls == {"rfftn": 4 * n + 1, "irfftn": 4 * n + 1}
    again = run(spec, u0, rc)
    assert np.array_equal(first.diagnostics, again.diagnostics)
    assert np.array_equal(first.final_state.values, again.final_state.values)


@pytest.mark.parametrize("stride", [1, 3, 8])
def test_linear_blowup_step_does_not_depend_on_stride(stride):
    # F = -40 u: u = 2 exp(40 t) passes 1e12 during step 44 at dt 1/64
    spec = SystemSpec(1, 1, [[1.0]], zero_transport(1, 1),
                      PolynomialReaction.from_matrix([[-40.0]]))
    u0 = Field(BLOWUP_GRID, np.full((1, 16), 2.0))
    ts = run(spec, u0, RunConfig(t_end=1.0, dt=1 / 64, output_stride=stride))
    assert ts.blown_up and ts.blowup_step == 44
    assert ts.final_t == 43 // stride * stride / 64


def test_suggest_dt_respects_exp_budget(scalar_heat_spec):
    from trilap import suggest_dt

    grid = Grid(d=1, n=256, box=8.0)
    dt = suggest_dt(scalar_heat_spec, grid, t_end=1.0)
    assert grid.k_sixth.max() * dt <= 700.0
    steps = 1.0 / dt
    assert abs(steps - round(steps)) < 1e-9
    # mild grids take the whole horizon in one exact step
    coarse = Grid(d=1, n=16, box=64.0)
    assert suggest_dt(scalar_heat_spec, coarse, t_end=0.5) == 0.5


def test_dealias_mask_layout():
    g = Grid(d=1, n=32, box=8.0)
    m = np.abs(np.fft.fftfreq(32) * 32)[:17]
    assert np.array_equal(g.half_dealias_mask, m < 32 / 3)
    assert g.half_dealias_mask[0]
    g2 = Grid(d=2, n=32, box=8.0)
    full = np.abs(np.fft.fftfreq(32) * 32) < 32 / 3
    assert np.array_equal(g2.half_dealias_mask, full[:, None] & full[None, :17])


def test_timeseries_csv_and_state_dump(tmp_path, scalar_heat_spec):
    grid = Grid(d=1, n=16, box=16.0)
    u0 = Field(grid, np.exp(-0.5 * grid.axis_coords**2)[None])
    ts = run(scalar_heat_spec, u0, RunConfig(t_end=0.02, dt=0.01, output_stride=1))
    csv = ts.to_csv()
    assert csv.splitlines()[0] == "t,component,min,argmin_index,mass,l2norm"
    assert len(csv.splitlines()) == 1 + len(ts.times)
    # plain parseable numbers, exact round trip
    first = csv.splitlines()[1].split(",")
    assert float(first[0]) == 0.0 and "np." not in csv
    assert float(first[2]) == ts.diagnostics[0, 0, 0]
    path = tmp_path / "state.npz"
    ts.save_final_state(path)
    data = np.load(path)
    assert np.array_equal(data["values"], ts.final_state.values)
    assert float(data["t"]) == ts.final_t
    assert int(data["n"]) == 16 and float(data["box"]) == 16.0
