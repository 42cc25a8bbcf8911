"""Metamorphic relations: exact symmetries of the system, used as test oracles.

Component permutation.  Relabel the components by a permutation p (new
component i is old component p[i]): D and every T[a] become D[p][:, p], each
reaction term list moves to its new component and its exponent vector is
permuted the same way.  The evolution of the relabelled system is the
relabelled evolution, and the audit locates the same couplings under their
new labels.
"""

from pathlib import Path

import numpy as np
import pytest

from trilap import Field, Grid, PolynomialReaction, RunConfig, SystemSpec, audit, load_system, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# small grids, one per dimension; the example configs are d = 1
GRIDS = {1: Grid(1, 32, 8.0), 2: Grid(2, 16, 8.0), 3: Grid(3, 8, 8.0)}
SWAP = (1, 0)


def _lifted(name, d):
    """configs/<name> at dimension d: T[0] on every axis, halved on each further axis."""
    spec = load_system((CONFIGS / name).read_text())
    transport = tuple(spec.transport[0] * 0.5**a for a in range(d))
    return SystemSpec(d, spec.ncomp, spec.diffusion, transport, spec.reaction)


def _permuted(spec, p):
    """The system with component i holding old component p[i]."""
    p = list(p)
    reaction = spec.reaction
    if isinstance(reaction, PolynomialReaction):
        reaction = PolynomialReaction(tuple(
            tuple((c, tuple(expo[l] for l in p)) for c, expo in reaction.terms[k]) for k in p
        ))
    return SystemSpec(spec.d, spec.ncomp, spec.diffusion[np.ix_(p, p)],
                      tuple(g[np.ix_(p, p)] for g in spec.transport), reaction)


CASES = [(name, d) for name in sorted(p.name for p in CONFIGS.glob("*.json")) for d in (1, 2, 3)]
# The Pade step of spectral.matrix_exp_batch solves (V - U) R = V + U with
# np.linalg.solve, whose partial pivoting depends on the component order.
# Relabelled tables then differ in the last bit (1-2e-16 of their largest
# entry); a 2 x 2 Cramer solve in its place makes all four cases bit-identical.
PIVOTING = "np.linalg.solve pivots by component order in matrix_exp_batch's Pade step"
PIVOTED = {("coupled_diffusion.json", 3), ("coupled_transport.json", 1),
           ("coupled_transport.json", 2), ("coupled_transport.json", 3)}


@pytest.mark.parametrize("name,d", [
    pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=PIVOTING))
    if case in PIVOTED else case
    for case in CASES
])
def test_run_of_the_permuted_system_is_the_permuted_run_bit_for_bit(name, d):
    spec, grid = _lifted(name, d), GRIDS[d]
    rng = np.random.default_rng(sum(map(ord, name)) + d)
    u0 = rng.uniform(0.0, 1.0, (spec.ncomp,) + grid.shape)
    rc = RunConfig(t_end=4e-3, dt=1e-3, output_stride=1)
    ts = run(spec, Field(grid, u0), rc)
    swapped = run(_permuted(spec, SWAP), Field(grid, u0[list(SWAP)]), rc)
    assert not ts.blown_up and not swapped.blown_up
    assert swapped.times.tobytes() == ts.times.tobytes()
    assert swapped.final_state.values.tobytes() == ts.final_state.values[list(SWAP)].tobytes()
    assert swapped.diagnostics.tobytes() == ts.diagnostics[:, list(SWAP)].tobytes()


def _located(report, p):
    """Verdicts, and the matrix sites of violations and warnings relabelled by p, sorted."""
    new = {old: i for i, old in enumerate(p)}

    def sites(found):
        return sorted(
            (v.rule, v.site["matrix"], new[v.site["row"]], new[v.site["col"]])
            for v in found if "matrix" in v.site
        )

    verdicts = (report.overall, report.diffusion_ok, report.transport_ok, report.reaction_ok)
    return verdicts, sites(report.violations), sites(report.warnings)


@pytest.mark.parametrize("name,d", CASES)
def test_audit_of_the_permuted_system_is_the_permuted_audit(name, d):
    spec = _lifted(name, d)
    identity = tuple(range(spec.ncomp))
    report = audit(spec)
    assert _located(audit(_permuted(spec, SWAP)), identity) == _located(report, SWAP)
    # the coupled configs fail, so the sites compared are not empty
    assert report.overall == (not name.startswith("coupled"))
