"""trilap: pseudo-spectral solver and nonnegativity audit for systems with
cubed-Laplacian diffusion, first-order transport and pointwise reactions."""

__version__ = "0.1.0"

from .core import (
    AuditReport,
    ConfigError,
    DimensionMismatchError,
    Field,
    Grid,
    LinearReaction,
    PolynomialReaction,
    PositivityError,
    SystemSpec,
    Violation,
    ZeroReaction,
    inner_product,
    load_grid,
    load_system,
    min_component_value,
    serialize_system,
)
from .criterion import (
    SignSampler,
    audit,
    check_assumption_offdiag_nonneg,
    check_diagonality,
    check_essentially_nonpositive,
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
    initial_rate_field,
    ode_reduction_check,
    run_violation_experiment,
)
from .spectral import (
    ModePropagator,
    PropagatorOverflowError,
    SpectrumField,
    apply_laplacian_cubed,
    apply_transport,
    build_propagator,
    forward,
    inverse,
    matrix_exp_batch,
)
from .stepper import (
    ReactionOverflowError,
    RunConfig,
    TimeSeries,
    evaluate_reaction,
    run,
    suggest_dt,
)

__all__ = [name for name in dir() if not name.startswith("_")]
