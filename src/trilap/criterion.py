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
exactly and agrees with the essential-nonpositivity read of L.

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
    "REACTION_SIGN_TOLERANCE",
    "check_assumption_offdiag_nonneg",
    "check_diagonality",
    "check_reaction_boundary_sign",
    "check_essentially_nonpositive",
    "audit",
]

REACTION_SIGN_TOLERANCE = 1e-12

RULE_DIAG_A = "diag-A"
RULE_DIAG_GAMMA = "diag-Gamma"
RULE_REACTION = "reaction-sign"
RULE_REACTION_INDETERMINATE = "reaction-indeterminate"
RULE_ASSUMPTION = "assumption-akl"
RULE_ESSENTIAL = "essential-nonpositivity"


@dataclass(frozen=True)
class SignSampler:
    """Sampling plan for the reaction boundary sign check.

    Per component: the origin, each unit coordinate vector, each scaled
    unit vector, and samples_per_component uniform nonnegative draws at
    every magnitude scale, all with the tested coordinate pinned to zero.
    """

    samples_per_component: int = 256
    magnitude_scales: tuple[float, ...] = (0.1, 1.0, 10.0)
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_component < 1:
            raise ConfigError("samples_per_component must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.magnitude_scales or any(s <= 0 for s in self.magnitude_scales):
            raise ConfigError("magnitude scales must be positive")

    def face_points(self, ncomp: int, k: int) -> np.ndarray:
        """Nonnegative sample points with coordinate k pinned to 0, shape (P, ncomp)."""
        pts = [np.zeros(ncomp)]
        for j in range(ncomp):
            if j == k:
                continue
            e = np.zeros(ncomp)
            e[j] = 1.0
            pts.append(e)
            for scale in self.magnitude_scales:
                pts.append(scale * e)
        rng = np.random.default_rng((self.seed, k))
        for scale in self.magnitude_scales:
            block = rng.uniform(0.0, scale, size=(self.samples_per_component, ncomp))
            block[:, k] = 0.0
            pts.append(block)
        return np.vstack([np.atleast_2d(p) for p in pts])


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
        for p, v in zip(pts, vals):
            site = {"component": k, "sample": [float(x) for x in p]}
            if not np.isfinite(v):
                out.append(Violation(RULE_REACTION_INDETERMINATE, site, float("nan")))
            elif v > REACTION_SIGN_TOLERANCE:
                out.append(Violation(RULE_REACTION, site, float(v)))
    return out


def check_essentially_nonpositive(matrix) -> list[Violation]:
    """Every strictly positive off-diagonal entry of a linear-reaction matrix."""
    return _offdiag(matrix, "L", RULE_ESSENTIAL, lambda v: v > 0.0)


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
