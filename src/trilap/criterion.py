"""Structural audit: the necessary condition for nonnegativity preservation.

A system can keep componentwise-nonnegative data nonnegative only if the
diffusion and transport matrices are diagonal and the reaction satisfies
the boundary sign condition

    F_k(s_1, ..., s_{k-1}, 0, s_{k+1}, ..., s_N) <= 0   for all s_l >= 0.

The matrix checks are exact structural reads.  The reaction check samples
the face {s_k = 0, s >= 0}: a reported violation is a concrete certificate,
a clean pass is sampled evidence only (the quantifier ranges over an
unbounded set).  For linear reactions F(u) = L u the face restriction is
linear, so sampling with unit coordinate vectors decides the condition
exactly: it flags the positive off-diagonal entries of L.  The tests hold
that essential-nonpositivity read of L as their oracle (tests/oracles.py).

The hypothesis that off-diagonal diffusion entries are nonnegative is a
premise of the criterion, not a conclusion; its failures are reported as
warnings and never flip the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AuditReport, ConfigError, Reaction, SystemSpec, Violation, as_square_matrix

__all__ = [
    "SignSampler",
    "MAGNITUDE_SCALES",
    "REACTION_SIGN_TOLERANCE",
    "check_assumption_offdiag_nonneg",
    "check_diagonality",
    "check_reaction_boundary_sign",
    "audit",
]

REACTION_SIGN_TOLERANCE = 1e-12
# the scaled unit vectors and the ranges of the uniform face draws
MAGNITUDE_SCALES = (0.1, 1.0, 10.0)

RULE_DIAG_A = "diag-A"
RULE_DIAG_GAMMA = "diag-Gamma"
RULE_REACTION = "reaction-sign"
RULE_REACTION_INDETERMINATE = "reaction-indeterminate"
RULE_ASSUMPTION = "assumption-akl"


@dataclass(frozen=True)
class SignSampler:
    """Sampling plan for the reaction boundary sign check.

    Per component: the origin, each unit coordinate vector, each scaled
    unit vector, and samples_per_component uniform nonnegative draws at
    each of MAGNITUDE_SCALES, all with the tested coordinate pinned to zero.
    """

    samples_per_component: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_component < 1:
            raise ConfigError("samples_per_component must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def face_points(self, ncomp: int, k: int) -> np.ndarray:
        """Nonnegative sample points with coordinate k pinned to 0, shape (P, ncomp)."""
        # per free axis j: e_j, then e_j times each scale
        factors = np.array((1.0, *MAGNITUDE_SCALES))
        units = np.delete(np.eye(ncomp), k, 0)
        rows = (factors[:, None] * units[:, None, :]).reshape(-1, ncomp)
        # one uniform block on [0, scale) per scale, in order: scale * U gives the same
        # doubles as rng.uniform(0.0, scale), whose array-argument form is slow
        rng = np.random.default_rng((self.seed, k))
        scales = factors[1:, None, None]
        draws = scales * rng.random((scales.shape[0], self.samples_per_component, ncomp))
        draws[..., k] = 0.0
        return np.vstack([np.zeros((1, ncomp)), rows, draws.reshape(-1, ncomp)])


def _offdiag(matrix, matrix_id: str, rule: str, flagged) -> list[Violation]:
    """Off-diagonal entries v of the matrix with flagged(v), in row-major order."""
    m = as_square_matrix(matrix, name=matrix_id)
    n = m.shape[0]
    return [
        Violation(rule, {"matrix": matrix_id, "row": k, "col": j}, float(m[k, j]))
        for k in range(n)
        for j in range(n)
        if k != j and flagged(m[k, j])
    ]


def check_assumption_offdiag_nonneg(diffusion) -> list[Violation]:
    """Premise check: every off-diagonal diffusion entry with a negative value."""
    return _offdiag(diffusion, "A", RULE_ASSUMPTION, lambda v: v < 0.0)


def check_diagonality(matrix, tol: float = 0.0, matrix_id: str = "A") -> list[Violation]:
    """Every off-diagonal entry exceeding tol in magnitude (default: exact zero)."""
    if not tol >= 0:  # also rejects NaN, which no entry would ever exceed
        raise ConfigError(f"tol must be >= 0, got {tol}")
    rule = RULE_DIAG_A if matrix_id == "A" else RULE_DIAG_GAMMA
    return _offdiag(matrix, matrix_id, rule, lambda v: abs(v) > tol)


def check_reaction_boundary_sign(
    reaction: Reaction, ncomp: int, sampler: SignSampler | None = None
) -> list[Violation]:
    """Sample F_k on the nonnegative face {s_k = 0}; report F_k > 1e-12.

    Violations carry rule "reaction-sign" with the witnessing sample;
    samples where the evaluation overflowed carry rule
    "reaction-indeterminate" instead and are not counted as violations.
    """
    sampler = sampler or SignSampler()
    reaction.validate(ncomp)
    out = []
    for k in range(ncomp):
        pts = sampler.face_points(ncomp, k)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = reaction.evaluate(pts.T)[k]
        finite = np.isfinite(vals)
        # witnesses are built for the flagged samples only, in sample order
        flagged = ~finite | (vals > REACTION_SIGN_TOLERANCE)
        for sample, value, is_finite in zip(
            pts[flagged].tolist(), vals[flagged].tolist(), finite[flagged].tolist()
        ):
            site = {"component": k, "sample": sample}
            if is_finite:
                out.append(Violation(RULE_REACTION, site, value))
            else:
                out.append(Violation(RULE_REACTION_INDETERMINATE, site, float("nan")))
    return out


def audit(spec: SystemSpec, sampler: SignSampler | None = None, tol: float = 0.0) -> AuditReport:
    """Run all conclusion checks plus the premise check on a validated system.

    Verdict passes iff the diagonality checks and the sampled reaction
    boundary check all hold; premise failures and indeterminate reaction
    samples are warnings.  Pure: identical inputs give identical reports.
    """
    warnings = list(check_assumption_offdiag_nonneg(spec.diffusion))
    diff_v = check_diagonality(spec.diffusion, tol, "A")
    trans_v: list[Violation] = []
    for i, g in enumerate(spec.transport):
        trans_v.extend(check_diagonality(g, tol, f"Gamma[{i}]"))
    react_all = check_reaction_boundary_sign(spec.reaction, spec.ncomp, sampler)
    react_v = [v for v in react_all if v.rule == RULE_REACTION]
    warnings.extend(v for v in react_all if v.rule == RULE_REACTION_INDETERMINATE)
    return AuditReport(
        diffusion_ok=not diff_v,
        transport_ok=not trans_v,
        reaction_ok=not react_v,
        violations=tuple(diff_v + trans_v + react_v),
        warnings=tuple(warnings),
    )
