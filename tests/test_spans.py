"""The benchmark's span tracer (perfbench/spans.py) still finds every layer it times.

The tracer locates its targets by name: module globals, class attributes and
the Reaction subclasses in `trilap.core`.  A refactor that renames or removes
one of them leaves that layer's metrics at 0 without failing the benchmark;
this test runs one small unit of each layer under the tracer instead.  The
file is compiled from its source, so nothing is written under perfbench/.
"""

import types
from pathlib import Path

import numpy as np

from trilap import DiffusionViolation, Field, Grid, PolynomialReaction, SystemSpec
from trilap import criterion, probes, stepper
from trilap.stepper import RunConfig

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_counts_every_layer_and_restores_the_originals():
    fft, run = np.fft.fft, stepper.run
    logistic = PolynomialReaction((((1.0, (2, 0)), (-1.0, (1, 0))), ((1.0, (0, 2)), (-1.0, (0, 1)))))
    spec = SystemSpec(1, 2, np.eye(2), (np.zeros((2, 2)),), logistic)
    grid = Grid(1, 32, 16.0)
    rc = RunConfig(t_end=4e-3, dt=1e-3)
    assert grid.size * rc.n_steps < stepper.SPLIT_MIN_MODE_STEPS  # stepped in this process
    u0 = Field(grid, np.full((2,) + grid.shape, 0.5))

    tracer = _spans_module().Tracer()
    tracer.install()
    try:
        assert stepper.run is not run and np.fft.fft is not fft
        stepper.run(spec, u0, rc)
        probes.run_violation_experiment(DiffusionViolation(), (1.0,), Grid(1, 256, 4.0))
        criterion.audit(spec)
    finally:
        tracer.uninstall()

    metrics = tracer.layer_metrics()
    for name in ("spectral.build_propagator_calls", "spectral.fft_calls",
                 "core.reaction_evaluate_calls", "probes.eps_points", "criterion.samples"):
        assert metrics[name] > 0, name
    assert np.fft.fft is fft and stepper.run is run
