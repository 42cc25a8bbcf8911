import math
import tracemalloc
import weakref

import numpy as np
import pytest

from trilap import (
    ConfigError,
    Field,
    Grid,
    Mollifier,
    PolynomialReaction,
    ProbeConstructionError,
    SystemSpec,
    build_diffusion_probe,
    build_transport_probe,
    run_violation_experiment,
    symbol,
)
from trilap import probes
from trilap.probes import (
    DiffusionViolation,
    ReactionViolation,
    TransportViolation,
    _rate_at_origin,
    _rate_entry,
    axis_derivative_at_origin,
    fit_power_law,
    lap3_at_origin,
    ode_reduction_check,
    probe_grid,
    rk4_ode,
)
from trilap.stepper import RunConfig, run

from conftest import pd_diffusion
from oracles import (
    diffusion_probe_full_mesh,
    erfc_ramp,
    initial_rate_field,
    repaired_system,
    transport_probe_full_mesh,
)

LN2 = math.log(2.0)


def test_diffusion_probe_value_at_origin():
    g = probe_grid(1)
    p = build_diffusion_probe(g, 1.0)
    assert p.values[(0,) + g.origin_index] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_diffusion_probe_nonnegative_everywhere(d):
    if d == 3:
        g, mol = Grid(3, 64, 1.1), Mollifier(0.03, 0.30)
    else:
        g, mol = probe_grid(d), None
    p = build_diffusion_probe(g, 1.0, mol)
    assert p.values.min() >= 0.0


def test_diffusion_probe_zero_outside_support():
    g = probe_grid(1)
    mol = Mollifier(0.1, 1.0)
    p = build_diffusion_probe(g, 1.0, mol)
    r = np.abs(g.axis_coords)
    outside = p.values[0][r > 1.05]
    assert np.abs(outside).max() < 1e-10


def test_diffusion_probe_preconditions():
    g = probe_grid(1)
    with pytest.raises(ProbeConstructionError):
        build_diffusion_probe(g, 0.0)
    with pytest.raises(ProbeConstructionError):
        build_diffusion_probe(g, 1.0, Mollifier(0.8, 1.2))  # r0 > ln2
    with pytest.raises(ProbeConstructionError):
        build_diffusion_probe(g, 1.0, Mollifier(LN2, 1.2))  # no blend room at the cap
    with pytest.raises(ProbeConstructionError):
        build_diffusion_probe(g, 1.0, Mollifier(0.1, 4.0))  # support exceeds half box
    with pytest.raises(ProbeConstructionError):
        Mollifier(0.5, 0.2)


def test_diffusion_probe_triple_laplacian_identity():
    g = probe_grid(1)
    p = build_diffusion_probe(g, 1.0)
    val = lap3_at_origin(p)
    assert val == pytest.approx(-1.0, rel=0.02)


def test_diffusion_probe_eps_scaling_factor():
    # halving eps multiplies the triple Laplacian at the origin by 2^6
    g = Grid(1, 512, 6.0)
    base = Mollifier(0.10, 1.30)
    v1 = lap3_at_origin(build_diffusion_probe(g, 1.0, base))
    v2 = lap3_at_origin(build_diffusion_probe(g, 0.5, base.scaled(0.5)))
    assert v2 / v1 == pytest.approx(64.0, rel=0.05)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lap3_fast_path_matches_spectral_route(d):
    g = Grid(d=d, n=32, box=4.0)
    mesh = np.meshgrid(*([g.axis_coords] * d), indexing="ij")
    vals = np.exp(-0.5 * sum(x**2 for x in mesh) / 0.09)[None]
    f = Field(g, vals)
    # independent full complex round trip: -|k|^6 from fftfreq
    k = 2 * np.pi * np.fft.fftfreq(g.n, d=g.box / g.n)
    k6 = sum(kx**2 for kx in np.meshgrid(*([k] * d), indexing="ij")) ** 3
    slow = np.fft.ifftn(-k6 * np.fft.fftn(vals[0])).real
    want = slow[g.origin_index]
    assert lap3_at_origin(f) == pytest.approx(want, rel=1e-9)


def test_transport_probe_derivative_and_sign():
    g = probe_grid(1)
    p = build_transport_probe(g, 0, 1, 1.0)
    assert p.values[(0,) + g.origin_index] == pytest.approx(1.0, abs=1e-12)
    assert p.values.min() >= 0.0
    d1 = axis_derivative_at_origin(p, 0)
    assert d1 == pytest.approx(-1.0, rel=1e-3)
    flipped = build_transport_probe(g, 0, -1, 1.0)
    assert axis_derivative_at_origin(flipped, 0) == pytest.approx(1.0, rel=1e-3)
    # coupling times derivative is negative when sign matches the coupling
    gamma = 0.7
    probe = build_transport_probe(g, 0, 1 if gamma > 0 else -1, 1.0)
    assert gamma * axis_derivative_at_origin(probe, 0) < 0.0


def test_transport_probe_eps_scaling():
    g = probe_grid(1)
    kind = TransportViolation()
    d_full = axis_derivative_at_origin(kind.probe(g, 1.0), 0)
    d_half = axis_derivative_at_origin(kind.probe(g, 0.5), 0)
    assert d_half / d_full == pytest.approx(2.0, rel=0.05)


def test_transport_probe_validation():
    g = probe_grid(1)
    with pytest.raises(ProbeConstructionError):
        build_transport_probe(g, 1, 1, 1.0)  # axis out of range for d=1
    with pytest.raises(ProbeConstructionError):
        build_transport_probe(g, 0, 2, 1.0)
    with pytest.raises(ProbeConstructionError):
        build_transport_probe(g, 0, 1, 1e-4, Mollifier(0.4, 1.0))  # exp overflow


def test_transport_probe_transverse_bump_independent_of_axis():
    g = probe_grid(2)
    p = build_transport_probe(g, 0, 1, 1.0)
    vals = p.values[0]
    c = g.n // 2
    # near the origin the axis profile is exp(-x/eps) times a constant in x
    line = vals[c - 4:c + 5, c]
    x = g.axis_coords[c - 4:c + 5]
    assert np.abs(line / np.exp(-x) - 1.0).max() < 1e-10


# the erf ramps: the Cephes erfc port against scipy.special.erfc, bit for bit


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


ERFC_CUTOFF = math.sqrt(probes._MAXLOG)  # past |a| ~ 26.64, erfc is exactly 0 (or 2)
ERFC_RANGES = {"below 1": (0.0, 1.0), "1 to 8": (1.0, 8.0), "8 to the cutoff": (8.0, ERFC_CUTOFF),
               "past the cutoff": (ERFC_CUTOFF, 40.0)}


@pytest.mark.parametrize("part", [*ERFC_RANGES, "edges", "underflow"])
def test_erfc_port_has_the_bits_of_scipy(part):
    from scipy.special import erfc

    if part == "edges":  # neighbours of the branch boundaries |a| = 1 and 8
        a = np.concatenate([e + np.arange(-3, 4) * np.spacing(e) for e in (1.0, 8.0)])
    elif part == "underflow":  # consecutive doubles: subnormal results, then exact zeros
        a = ERFC_CUTOFF + np.arange(-40, 41) * np.spacing(ERFC_CUTOFF)
    else:
        a = np.random.default_rng(26).uniform(*ERFC_RANGES[part], 20_000)
    a = np.concatenate([a, -a])  # 2 - y on the negative side
    ref = erfc(a)
    assert _bits(probes._erfc(a)) == _bits(ref)
    if part == "underflow":
        assert (ref == 0.0).any() and (ref > 0.0).any() and (ref == 2.0).any()


def test_erfc_port_at_signed_zeros_infinities_and_nan():
    from scipy.special import erfc

    a = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 8.0, -8.0, 30.0, -30.0, 1e200, -1e200,
                  np.inf, -np.inf])
    assert _bits(probes._erfc(a)) == _bits(erfc(a))
    assert np.isnan(probes._erfc(np.array([np.nan, 0.5, np.nan]))[[0, 2]]).all()
    assert np.isnan(probes._erfc(np.nan))


@pytest.mark.parametrize("r", [0.3, -2.0, np.float64(1.7), np.array(2.5), np.array(-0.0),
                               np.linspace(-1.0, 3.0, 17), np.linspace(0.0, 4.0, 12).reshape(3, 4)])
def test_gaussian_ramp_keeps_scipy_types_and_bits(r):
    ours, ref = probes.gaussian_ramp(r, 1.1, 0.2), erfc_ramp(r, 1.1, 0.2)
    assert type(ours) is type(ref)
    assert np.shape(ours) == np.shape(ref) and _bits(ours) == _bits(ref)


# grids: probe_grid's defaults and the benchmark sweep's two, each co-dilated to eps
PROBE_BIT_GRIDS = [probe_grid(1), probe_grid(2), probe_grid(3), Grid(2, 256, 4.4), Grid(3, 64, 2.2)]


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("grid", PROBE_BIT_GRIDS, ids=lambda g: f"d{g.d}-n{g.n}-box{g.box}")
def test_probes_keep_the_bits_of_the_builders_as_first_written(monkeypatch, grid, eps):
    # the builders once ran scipy's erfc on |x| at every sample and combined
    # their factors out of place; one erfc per distinct radius, gathered, and
    # in-place products must give the same probes bit for bit
    grid = Grid(grid.d, grid.n, grid.box * eps)
    builds = {"diffusion": lambda: probes.build_diffusion_probe(grid, eps)}
    for axis in range(grid.d):
        builds[f"transport axis {axis}"] = (
            lambda axis=axis: probes.build_transport_probe(grid, axis, (-1) ** axis, eps))
    for kind in (DiffusionViolation(), TransportViolation(axis=grid.d - 1, gamma=-1.0),
                 ReactionViolation()):
        builds[f"{kind.label} kind"] = lambda kind=kind: kind.probe(grid, eps)
    for name, build in builds.items():
        ours = build().values
        with monkeypatch.context() as m:
            m.setattr(probes, "build_diffusion_probe", diffusion_probe_full_mesh)
            m.setattr(probes, "build_transport_probe", transport_probe_full_mesh)
            old = build().values
        assert np.array_equal(ours.view(np.int64), old.view(np.int64)), name


def test_initial_rate_zero_data(scalar_heat_spec):
    g = Grid(d=1, n=32, box=8.0)
    rate = initial_rate_field(scalar_heat_spec, Field(g, np.zeros((1, 32))))
    assert np.abs(rate.values).max() == 0.0


def test_initial_rate_decoupled_component_stays_zero(rng):
    g = probe_grid(1)
    spec = SystemSpec(1, 2, np.diag([1.0, 2.0]), (np.diag([0.3, -0.1]),))
    vals = np.zeros((2,) + g.shape)
    vals[1] = build_diffusion_probe(g, 1.0).values[0]
    rate = initial_rate_field(spec, Field(g, vals))
    assert np.abs(rate.values[0]).max() == 0.0


def test_initial_rate_negative_under_forbidden_coupling():
    g = probe_grid(1)
    kind = DiffusionViolation()
    spec = kind.system(1)
    vals = np.zeros((2,) + g.shape)
    vals[1] = kind.probe(g, 1.0).values[0]
    rate = initial_rate_field(spec, Field(g, vals))
    assert rate.values[(0,) + g.origin_index] < -0.5


# grids with room for the eps = 1 probes of every kind, small enough for d = 3
RATE_GRIDS = {1: Grid(1, 256, 6.0), 2: Grid(2, 64, 2.2), 3: Grid(3, 32, 2.2)}


def _rate_cases():
    for d in (1, 2, 3):
        yield d, DiffusionViolation(a=0.7)
        yield from ((d, TransportViolation(axis=axis, gamma=-1.3)) for axis in range(d))
        yield d, ReactionViolation(k=1, j=0)
    for d in (1, 2, 3):  # a +0.0 component between k and j
        yield d, DiffusionViolation(k=2, j=0, a=1.3)
        yield d, ReactionViolation(k=2, j=0)


def _assert_rate_bits_match_the_field(spec, probe, k, j):
    grid = probe.grid
    vals = np.zeros((spec.ncomp,) + grid.shape)
    vals[j] = probe.values[0]
    field = initial_rate_field(spec, Field(grid, vals)).values[(k,) + grid.origin_index]
    fast = _rate_at_origin(spec, _rate_entry(spec, grid, k, j), probe, k, j)
    assert np.float64(fast).tobytes() == np.float64(field).tobytes(), (fast, field)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("coupled", [True, False])
def test_rate_symbol_row_has_the_bits_of_the_full_symbol(d, coupled):
    # row k, and entry (k, j), come from the same expression as the whole symbol
    rng = np.random.default_rng(10 * d + coupled)
    grid, n = RATE_GRIDS[d], 3
    if coupled:
        diffusion = pd_diffusion(rng, n)
        transport = tuple(rng.uniform(-1.0, 1.0, (n, n)) for _ in range(d))
    else:
        diffusion = np.diag(rng.uniform(0.5, 2.0, n))
        transport = tuple(np.diag(rng.uniform(-1.0, 1.0, n)) for _ in range(d))
    spec = SystemSpec(d, n, diffusion, transport)
    full = symbol(spec, grid.k_sixth, grid.deriv_mesh)
    for k in range(n):
        row = symbol(spec, grid.k_sixth, grid.deriv_mesh, row=k)
        if coupled:
            assert row.shape == (1, n) + grid.shape
            assert row.tobytes() == full[k].tobytes()
            for j in range(n):
                entry = symbol(spec, grid.k_sixth, grid.deriv_mesh, row=k, col=j)
                assert entry.shape == (1, 1) + grid.shape
                assert entry.tobytes() == full[k, j].tobytes()
        else:
            assert row.shape == (1,) + grid.shape
            assert row.tobytes() == full[k].tobytes()


@pytest.mark.parametrize("d,kind", list(_rate_cases()))
@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_rate_at_origin_is_the_rate_field_at_the_origin_bit_for_bit(d, kind, eps):
    grid = RATE_GRIDS[d]
    _assert_rate_bits_match_the_field(kind.system(d), kind.probe(grid, eps), kind.k, kind.j)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("coupled", [True, False])
@pytest.mark.parametrize("negative_zero", [False, True])
def test_rate_at_origin_matches_with_every_component_and_a_reaction(d, coupled, negative_zero):
    # random data in any component j, read in every other component k
    rng = np.random.default_rng(100 * d + 10 * coupled + negative_zero)
    grid, n = RATE_GRIDS[d], 3
    if coupled:
        diffusion = pd_diffusion(rng, n)
        transport = tuple(rng.uniform(-1.0, 1.0, (n, n)) for _ in range(d))
    else:
        diffusion = np.diag(rng.uniform(0.5, 2.0, n))
        transport = tuple(np.diag(rng.uniform(-1.0, 1.0, n)) for _ in range(d))
    # every F_k has a term in u_j alone, for every j != k
    reaction = PolynomialReaction((
        ((0.4, (2, 0, 0)), (-1.1, (1, 0, 1)), (-0.6, (0, 1, 0)), (0.8, (0, 0, 2))),
        ((2.5, (0, 3, 0)), (-0.3, (1, 1, 1)), (1.2, (2, 0, 0)), (-0.9, (0, 0, 1))),
        ((0.7, (0, 0, 1)), (-1.9, (2, 0, 1)), (0.2, (0, 2, 2)), (-0.5, (1, 0, 0)),
         (0.3, (0, 3, 0))),
    ))
    spec = SystemSpec(d, n, diffusion, transport, reaction)
    for j in range(n):
        vals = rng.standard_normal((1,) + grid.shape)
        if negative_zero:
            # signed zeros in the probe, the origin sample among them
            vals[vals < 0.5] = -0.0
            vals[(0,) + grid.origin_index] = -0.0
        for k in set(range(n)) - {j}:
            _assert_rate_bits_match_the_field(spec, Field(grid, vals), k, j)


def test_rate_at_origin_holds_one_complex_spectrum():
    # the transforms run in place on one complex copy of the probe: no second spectrum
    grid = Grid(3, 64, 2.2)
    kind = DiffusionViolation()
    spec = kind.system(grid.d)
    m_kj = _rate_entry(spec, grid, kind.k, kind.j)
    probe = kind.probe(grid, 1.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _rate_at_origin(spec, m_kj, probe, kind.k, kind.j)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    spectrum = 16 * grid.size
    assert spectrum <= peak <= 1.01 * spectrum, peak / spectrum


def test_violation_kind_validation():
    with pytest.raises(ValueError):
        DiffusionViolation(k=1, j=1)
    with pytest.raises(ValueError):
        DiffusionViolation(a=-1.0)
    with pytest.raises(ValueError):
        TransportViolation(gamma=0.0)
    with pytest.raises(ValueError):
        ReactionViolation(k=0, j=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            DiffusionViolation(a=bad)
        with pytest.raises(ValueError, match="finite"):
            TransportViolation(gamma=bad)
        with pytest.raises(ValueError, match="finite"):
            TransportViolation(gamma=-bad)


def test_diffusion_experiment_scaling(rng):
    grid = Grid(1, 512, 4.0)
    rep = run_violation_experiment(DiffusionViolation(), (1.0, 0.5, 0.25), grid)
    assert rep.eps == (1.0, 0.5, 0.25)
    assert rep.fitted_slope == pytest.approx(-6.0, abs=1.2)
    assert rep.negativity_observed
    assert all(m < -1e-8 for m in rep.min_after_t_probe)
    assert rep.dropped == ()


def test_transport_experiment_scaling():
    grid = Grid(1, 512, 4.0)
    rep = run_violation_experiment(TransportViolation(), (1.0, 0.5, 0.25), grid)
    assert rep.fitted_slope == pytest.approx(-1.0, abs=0.2)
    assert rep.negativity_observed
    assert all(r < 0 for r in rep.initial_rate_at_origin)


def test_reaction_experiment_no_eps_dependence():
    grid = Grid(1, 512, 4.0)
    rep = run_violation_experiment(ReactionViolation(), (1.0, 0.5, 0.25), grid)
    assert rep.fitted_slope == pytest.approx(0.0, abs=0.2)
    assert rep.negativity_observed


def test_experiment_drops_failing_eps(monkeypatch):
    grid = Grid(1, 256, 4.0)
    original = DiffusionViolation.probe

    def failing(self, g, eps):
        if eps < 0.6:
            raise ProbeConstructionError("synthetic failure")
        return original(self, g, eps)

    monkeypatch.setattr(DiffusionViolation, "probe", failing)
    rep = run_violation_experiment(DiffusionViolation(), (1.0, 0.5), grid)
    assert rep.eps == (1.0,)
    assert rep.dropped == ((0.5, "synthetic failure"),)
    assert rep.fitted_slope is None  # one point cannot be fitted


@pytest.mark.parametrize("t_probe,reason", [
    # the exact step of F_k = u_j grows component k by t_probe * u_j, past the 1e12 threshold
    (1e13, "blow-up at step 1"),
    (1e300, "non-finite propagator entries at dt=1e+300; reduce dt or grid resolution"),
])
def test_experiment_drops_every_eps_whose_step_fails(t_probe, reason):
    rep = run_violation_experiment(ReactionViolation(), (1.0, 0.5), Grid(1, 256, 4.0), t_probe)
    assert rep.dropped == ((1.0, reason), (0.5, reason))
    assert rep.eps == rep.initial_rate_at_origin == rep.min_after_t_probe == ()
    assert rep.fitted_slope is None and not rep.negativity_observed


@pytest.mark.xfail(strict=True, reason=(
    "matrix_exp_batch overscales the nilpotent coupling: its t_probe = 1e20 table "
    "is all zeros, so the step reports minima (0.0, 0.0)"))
def test_experiment_drops_an_exact_step_past_the_blow_up_threshold():
    rep = run_violation_experiment(ReactionViolation(), (1.0, 0.5), Grid(1, 256, 4.0), 1e20)
    assert rep.dropped == ((1.0, "blow-up at step 1"), (0.5, "blow-up at step 1"))


@pytest.mark.parametrize("t_probe", [0.0, -1.0, math.nan, math.inf])
def test_experiment_rejects_a_t_probe_that_is_not_finite_and_positive(monkeypatch, t_probe):
    def unreachable(*args):
        raise AssertionError("no eps may run")

    monkeypatch.setattr(ReactionViolation, "probe", unreachable)
    with pytest.raises(ConfigError):
        run_violation_experiment(ReactionViolation(), (1.0, 0.5), Grid(1, 256, 4.0), t_probe)


def _step_cases():
    for d in (1, 2, 3):
        yield d, DiffusionViolation(a=0.7)
        yield d, DiffusionViolation(k=2, j=0, a=1.3)
        yield d, TransportViolation(k=1, j=0, axis=d - 1, gamma=-1.3)
        yield d, TransportViolation(k=0, j=2, axis=0, gamma=0.8)
        yield d, ReactionViolation(k=1, j=0)
        yield d, ReactionViolation(k=2, j=1)


@pytest.mark.parametrize("d,kind", list(_step_cases()))
def test_experiment_minimum_is_the_full_step_minimum_bit_for_bit(d, kind):
    # component k alone, stepped from its zero start, against stepper.run over every component
    grid, eps_list = RATE_GRIDS[d], (1.0, 0.5)
    rep = run_violation_experiment(kind, eps_list, grid)
    assert rep.eps == eps_list and rep.dropped == ()
    spec = kind.system(d)
    for eps, rate, minimum in zip(eps_list, rep.initial_rate_at_origin, rep.min_after_t_probe):
        vals = np.zeros((spec.ncomp,) + grid.shape)
        vals[kind.j] = kind.probe(grid, eps).values[0]
        u0 = Field(grid, vals)
        ts = run(spec, u0, RunConfig(t_end=rep.t_probe, dt=rep.t_probe))
        assert not ts.blown_up
        want = ts.diagnostics[-1, kind.k, 0]
        assert np.float64(minimum).tobytes() == want.tobytes(), (eps, minimum, want)
        field = initial_rate_field(spec, u0).values[(kind.k,) + grid.origin_index]
        assert np.float64(rate).tobytes() == field.tobytes(), (eps, rate, field)


def test_experiment_rejects_a_decoupled_system(monkeypatch):
    monkeypatch.setattr(ReactionViolation, "system", repaired_system)
    with pytest.raises(ValueError, match="decoupled"):
        run_violation_experiment(ReactionViolation(), (1.0,), Grid(1, 256, 4.0))


def test_experiment_builds_one_propagator_for_all_eps(build_calls):
    # F_k = u_j is exactly linear, so the reaction kind also takes one exact step
    for kind in (DiffusionViolation(), ReactionViolation()):
        rep = run_violation_experiment(kind, (1.0, 0.5, 0.25), Grid(1, 512, 4.0))
        assert rep.eps == (1.0, 0.5, 0.25)
        assert len(build_calls) == 1, kind.label
        build_calls.clear()


def test_experiment_keeps_only_the_plane_its_step_reads(monkeypatch):
    # after the build, the N x N table is freed: the later eps points hold P[k, j] alone
    tables, alive = [], []
    real_build, real_probe = probes.build_propagator, probes.build_diffusion_probe

    def build(*args):
        prop = real_build(*args)
        tables.append(weakref.ref(prop.exps))
        return prop

    def probe(*args):
        alive.append([t() is not None for t in tables])
        return real_probe(*args)

    monkeypatch.setattr(probes, "build_propagator", build)
    monkeypatch.setattr(probes, "build_diffusion_probe", probe)
    rep = run_violation_experiment(DiffusionViolation(), (1.0, 0.5, 0.25), Grid(1, 512, 4.0))
    assert rep.eps == (1.0, 0.5, 0.25)
    assert alive == [[], [False], [False]]


# rates and minima of ReactionViolation at eps 1, 0.5, 0.25, as computed by
# 16 IF-RK4 steps per eps before F_k = u_j was stepped exactly
REACTION_EXPERIMENT = {
    1: (Grid(1, 512, 4.0), -0.9999999999999954,
        (-8.689651852649331e-06, -6.978648475893472e-06, -4.180437833636777e-06)),
    2: (probe_grid(2), -0.999999999999989,
        (-2.5378097360092786e-07, -2.0742565591024015e-07, -7.939316141419412e-08)),
}


@pytest.mark.parametrize("d", sorted(REACTION_EXPERIMENT))
def test_reaction_experiment_keeps_its_values(d):
    grid, rate, minima = REACTION_EXPERIMENT[d]
    rep = run_violation_experiment(ReactionViolation(), (1.0, 0.5, 0.25), grid)
    assert rep.eps == (1.0, 0.5, 0.25) and not rep.dropped
    assert rep.initial_rate_at_origin == pytest.approx((rate,) * 3, rel=1e-12, abs=0)
    assert rep.min_after_t_probe == pytest.approx(minima, rel=1e-12, abs=0)
    assert rep.negativity_observed


def test_fit_power_law():
    assert fit_power_law((1.0, 0.5, 0.25), (2.0, 128.0, 8192.0)) == pytest.approx(-6.0)
    assert fit_power_law((1.0,), (2.0,)) is None
    assert fit_power_law((1.0, 0.5), (0.0, 1.0)) is None
    # repeated eps: one distinct scale, no slope (not a failed least-squares fit)
    assert fit_power_law((1.0, 1.0), (2.0, 2.0)) is None
    assert fit_power_law((0.5, 1.0, 0.5), (3.0, 0.0, 3.0)) is None


def test_violation_report_serializable():
    grid = Grid(1, 256, 4.0)
    rep = run_violation_experiment(TransportViolation(), (1.0, 0.5), grid)
    d = rep.to_dict()
    assert set(d) >= {"kind", "eps", "initial_rate_at_origin", "min_after_t_probe",
                      "fitted_slope", "negativity_observed"}
    import json
    json.dumps(d)


# ---------------------------------------------------------------------------
# ODE reduction


def test_ode_reduction_zero_reaction():
    cmp = ode_reduction_check(PolynomialReaction(((), ())), np.array([1.0, 2.0]), 0.5, 1 / 64)
    assert cmp.max_deviation < 1e-13
    assert cmp.pde_first_negative is None and cmp.ode_first_negative is None
    assert cmp.negativity_times_agree


def test_ode_reduction_essentially_nonpositive_linear_stays_nonnegative(rng):
    L = np.array([[1.0, -0.4], [-0.3, 0.8]])
    reaction = PolynomialReaction.from_matrix(L)
    cmp = ode_reduction_check(reaction, np.array([1.0, 0.5]), 1.0, 1 / 128)
    assert cmp.max_deviation <= 1e-8
    assert np.all(cmp.ode_values >= 0.0)
    assert cmp.pde_first_negative is None and cmp.ode_first_negative is None


def test_ode_reduction_violating_reaction_goes_negative_in_both():
    viol = PolynomialReaction((((1.0, (0, 1)),), ()))
    cmp = ode_reduction_check(viol, np.array([0.0, 1.0]), 0.5, 1 / 64)
    assert cmp.max_deviation <= 1e-8
    assert cmp.pde_first_negative is not None and cmp.ode_first_negative is not None
    assert cmp.negativity_times_agree


@pytest.mark.parametrize("reaction", [
    PolynomialReaction.from_matrix([[-5.0, 0.0], [0.0, -5.0]]),
    PolynomialReaction((((-5.0, (1, 0)),), ((-5.0, (0, 1)),))),
])
def test_ode_reduction_of_an_exactly_linear_reaction_has_an_exact_reference(reaction):
    # u' = 5u: RK4 at dt 1/128 misses e^5 by 1.4e-5, while the PDE step is exact
    cmp = ode_reduction_check(reaction, np.array([1.0, 1.0]), 1.0, 1 / 128)
    assert cmp.max_deviation <= 1e-10
    assert cmp.ode_values[-1] == pytest.approx([math.exp(5.0)] * 2, rel=1e-14)
    assert not cmp.blown_up and cmp.negativity_times_agree


def test_ode_reduction_rejects_negative_start():
    with pytest.raises(ValueError):
        ode_reduction_check(PolynomialReaction(((),)), np.array([-1.0]), 0.5, 1 / 64)


def test_rk4_ode_truncates_on_blowup():
    growth = PolynomialReaction((((-1.0, (2,)),),))  # u' = +u^2
    out = rk4_ode(growth, np.array([2.0]), 2.0, 1 / 32)
    assert out.shape[0] < 65
    assert np.all(np.isfinite(out))


def test_repaired_systems_have_nonnegative_rate_at_pinned_zeros():
    grid = Grid(1, 256, 4.0)
    for kind in (DiffusionViolation(), TransportViolation(), ReactionViolation()):
        spec = repaired_system(kind, grid.d)
        probe = kind.probe(grid, 1.0)
        vals = np.zeros((spec.ncomp,) + grid.shape)
        vals[kind.j] = probe.values[0]
        rate = initial_rate_field(spec, Field(grid, vals))
        assert rate.values[kind.k].min() >= -1e-10
