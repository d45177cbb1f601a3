"""Guesswork asymptotics of i.i.d. word sources and their typical-set variants.

The package computes, for a fixed letter law p: the scaled cumulant
generating function of log-guesswork for the plain i.i.d. source, the
source conditioned on its typical set, and the uniform law on the typical
set; the associated rate functions, growth exponents, and large-deviation
pmf approximations; and exact finite-k oracles (method of types and naive
enumeration) that every asymptotic formula is validated against.
"""

from .asymptotics import (
    BinaryReport,
    GrowthExponents,
    ScgfModel,
    Source,
    SourceKind,
    binary_closed_forms,
    conditioned,
    growth_exponents,
    guesswork_pmf_approx,
    legendre_transform,
    scgf_model,
    unconditioned,
    uniform_typical,
)
from .entropy import (
    LetterDistribution,
    TypeVector,
    cross_entropy,
    enumerate_types,
    is_typical_type,
    num_types,
    shannon_entropy,
    type_count,
    type_count_matrix,
    typical_window,
)
from .errors import (
    AlphaDomainError,
    DistributionError,
    EmptyTypicalSetError,
    EpsilonInadmissibleError,
    GrainError,
    GridTooLargeError,
    GuessworkError,
    TypeSpaceTooLargeError,
    WordSpaceTooLargeError,
)
from .oracle import (
    CensusResult,
    ConvergencePoint,
    ExactGuessTable,
    FiniteKExponents,
    GuessBlock,
    SandwichBounds,
    build_guess_table,
    convergence_series,
    exact_mean_log_guesswork,
    exact_moment_log,
    finite_k_exponents,
    log_rank_power_sum,
    modal_word_count,
    moment_sandwich,
    naive_enumeration_crosscheck,
    smallest_nonempty_k,
    trend_holds,
    typical_set_census,
)
from .tilting import (
    BoundaryTypes,
    ClampedOptimum,
    Regime,
    admissible_epsilon_interval,
    boundary_types,
    clamped_optimum,
    require_admissible_epsilon,
    solve_cross_entropy,
    tilted_type,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
