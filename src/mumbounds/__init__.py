"""Mutually unbiased measurements in arbitrary dimension and the
trace-norm entanglement criteria they induce: complete d+1 MUM families
from a partitioned Gell-Mann basis, correlation matrices of bipartite
states, concurrence lower bounds, and separability / Schmidt-number
tests, with benchmark bound entangled states."""

from .basis import OperatorBasis, gellmann_generators, partition_basis, standard_basis
from .config import TOL, Tolerances
from .criteria import (
    BoundReport,
    CorrelationMatrix,
    build_correlation_matrix,
    concurrence_lower_bound,
    concurrence_lower_bounds,
    pure_concurrence,
    pure_trace_norm_closed_form,
    schmidt_number_lower_bound,
    separability_test,
)
from .linalg import (
    SchmidtData,
    partial_trace,
    partial_transpose,
    schmidt_decompose,
    trace_norm,
)
from .mums import (
    MumFamily,
    MumRelationReport,
    TInterval,
    build_f_blocks,
    build_mums,
    kappa_of_t,
    load_family,
    optimal_kappa,
    save_family,
    standard_family,
    swap_operator,
    t_interval,
    two_design_residual,
    verify_mum_relations,
)
from .states import (
    StateFileError,
    horodecki_noisy,
    horodecki_state,
    load_state,
    max_entangled,
    mix_with_white_noise,
    random_density,
    random_pure,
    save_state,
    tiles_noisy,
    tiles_state,
    validate_density,
)
from .threshold import ThresholdResult, find_threshold

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    "OperatorBasis",
    "gellmann_generators",
    "partition_basis",
    "standard_basis",
    "MumFamily",
    "MumRelationReport",
    "TInterval",
    "build_f_blocks",
    "build_mums",
    "kappa_of_t",
    "optimal_kappa",
    "standard_family",
    "swap_operator",
    "t_interval",
    "two_design_residual",
    "verify_mum_relations",
    "save_family",
    "load_family",
    "BoundReport",
    "CorrelationMatrix",
    "build_correlation_matrix",
    "concurrence_lower_bound",
    "concurrence_lower_bounds",
    "pure_concurrence",
    "pure_trace_norm_closed_form",
    "schmidt_number_lower_bound",
    "separability_test",
    "SchmidtData",
    "partial_trace",
    "partial_transpose",
    "schmidt_decompose",
    "trace_norm",
    "StateFileError",
    "horodecki_noisy",
    "horodecki_state",
    "load_state",
    "max_entangled",
    "mix_with_white_noise",
    "random_density",
    "random_pure",
    "save_state",
    "tiles_noisy",
    "tiles_state",
    "validate_density",
    "ThresholdResult",
    "find_threshold",
]
