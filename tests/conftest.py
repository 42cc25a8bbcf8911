import numpy as np
import pytest

from trilap import Grid, SystemSpec, ZeroReaction


def pd_diffusion(rng, n):
    """Random matrix with positive definite symmetric part."""
    r = rng.uniform(-1.0, 1.0, (n, n))
    shift = abs(np.linalg.eigvalsh(r + r.T).min()) / 2.0 + rng.uniform(0.2, 1.0)
    return r + shift * np.eye(n)


def zero_transport(d, n):
    return tuple(np.zeros((n, n)) for _ in range(d))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def grid1d():
    return Grid(d=1, n=64, box=16.0)


@pytest.fixture
def scalar_heat_spec():
    """d=1, single component, pure sixth-order diffusion."""
    return SystemSpec(1, 1, [[1.0]], zero_transport(1, 1), ZeroReaction())


@pytest.fixture
def build_calls(monkeypatch):
    """Arguments of every propagator build that stepper.run makes during the test."""
    from trilap import stepper

    calls = []
    real = stepper.build_propagator

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(stepper, "build_propagator", counting)
    return calls
