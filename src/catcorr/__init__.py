"""Pairwise quantum correlations of balanced multipartite coherent-state
superpositions: overlaps, two-qubit reductions, discord and concurrence in
closed form with brute-force cross-checks, and dephasing dynamics."""

from .coherent import (
    AlgebraKind,
    AlgebraSpec,
    Overlap,
    overlap_closed,
    overlap_series,
)
from .correlations import (
    CorrelationReport,
    MeasurementBasis,
    binary_entropy,
    concurrence_pure,
    concurrence_x,
    discord_brute_force,
    discord_mixed_closed,
    discord_pure,
    koashi_winter_min,
    von_neumann_entropy,
    werner_discord,
)
from .dynamics import (
    DephasingChannel,
    apply_dephasing,
    concurrence_t,
    default_time_grid,
    discord_t,
    sudden_death_time,
)
from .errors import ConvergenceError, DomainError
from .states import (
    Parity,
    PureBipartition,
    SuperpositionSpec,
    TwoQubitState,
    bloch_matrix,
    marginals,
    partial_trace_pair,
    pure_bipartition,
    reduced_rho12,
    superposition_vector,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraKind",
    "AlgebraSpec",
    "ConvergenceError",
    "CorrelationReport",
    "DephasingChannel",
    "DomainError",
    "MeasurementBasis",
    "Overlap",
    "Parity",
    "PureBipartition",
    "SuperpositionSpec",
    "TwoQubitState",
    "apply_dephasing",
    "binary_entropy",
    "bloch_matrix",
    "concurrence_pure",
    "concurrence_t",
    "concurrence_x",
    "default_time_grid",
    "discord_brute_force",
    "discord_mixed_closed",
    "discord_pure",
    "discord_t",
    "koashi_winter_min",
    "marginals",
    "overlap_closed",
    "overlap_series",
    "partial_trace_pair",
    "pure_bipartition",
    "reduced_rho12",
    "sudden_death_time",
    "superposition_vector",
    "von_neumann_entropy",
    "werner_discord",
]
