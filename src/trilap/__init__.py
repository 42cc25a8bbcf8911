"""trilap: pseudo-spectral solver and nonnegativity audit for systems with
cubed-Laplacian diffusion, first-order transport and pointwise reactions."""

__version__ = "0.1.0"

from .core import (
    AuditReport,
    ConfigError,
    DimensionMismatchError,
    Field,
    Grid,
    PolynomialReaction,
    PositivityError,
    SystemSpec,
    Violation,
    ZeroReaction,
    load_grid,
    load_system,
)
from .criterion import (
    SignSampler,
    audit,
    check_assumption_offdiag_nonneg,
    check_diagonality,
    check_reaction_boundary_sign,
)
from .probes import (
    DiffusionViolation,
    Mollifier,
    ProbeConstructionError,
    ReactionViolation,
    TransportViolation,
    ViolationReport,
    build_diffusion_probe,
    build_transport_probe,
    ode_reduction_check,
    run_violation_experiment,
)
from .spectral import (
    ModePropagator,
    PropagatorOverflowError,
    apply_modes,
    build_propagator,
    matrix_exp_batch,
    symbol,
)
from .stepper import (
    RunConfig,
    TimeSeries,
    run,
    suggest_dt,
)

__all__ = [
    # core
    "AuditReport", "ConfigError", "DimensionMismatchError", "Field", "Grid",
    "PolynomialReaction", "PositivityError", "SystemSpec", "Violation", "ZeroReaction",
    "load_grid", "load_system",
    # criterion
    "SignSampler", "audit", "check_assumption_offdiag_nonneg", "check_diagonality",
    "check_reaction_boundary_sign",
    # probes
    "DiffusionViolation", "Mollifier", "ProbeConstructionError", "ReactionViolation",
    "TransportViolation", "ViolationReport", "build_diffusion_probe",
    "build_transport_probe", "ode_reduction_check", "run_violation_experiment",
    # spectral
    "ModePropagator", "PropagatorOverflowError", "apply_modes", "build_propagator",
    "matrix_exp_batch", "symbol",
    # stepper
    "RunConfig", "TimeSeries", "run", "suggest_dt",
]
