"""Guesswork asymptotics of i.i.d. word sources and their typical-set variants.

The package computes, for a fixed letter law p: the scaled cumulant
generating function of log-guesswork for the plain i.i.d. source, the
source conditioned on its typical set, and the uniform law on the typical
set; the associated rate functions, growth exponents, and large-deviation
pmf approximations; and exact finite-k oracles (method of types and naive
enumeration) that every asymptotic formula is validated against.

Importing the package imports none of its submodules. Each public name is
resolved on first use (PEP 562) from the submodule that defines it, so a
caller pays for numpy and the numeric modules only when it uses them: the
scalar names (`SourceKind`, `BinaryReport`, `binary_closed_forms`, the
admissibility rule and the exception types) come from `entropy`, which
loads no numpy, and `log_rank_power_sum` from `oracle`, beside the tables
its kernel sums.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it; the submodules' own
# names map to themselves.
_MODULE_OF = {
    **dict.fromkeys((
        "GrowthExponents", "ScgfModel", "Source", "conditioned", "growth_exponents",
        "guesswork_pmf_approx", "legendre_transform", "scgf_model", "unconditioned",
        "uniform_typical",
    ), "asymptotics"),
    **dict.fromkeys((
        "AlphaDomainError", "BinaryReport", "DistributionError", "EmptyTypicalSetError",
        "EpsilonInadmissibleError", "GrainError", "GridTooLargeError", "GuessworkError",
        "LetterDistribution", "SourceKind", "TypeSpaceTooLargeError", "TypeVector",
        "WordSpaceTooLargeError", "admissible_epsilon_interval", "binary_closed_forms",
        "cross_entropy", "enumerate_types", "is_typical_type", "num_types",
        "require_admissible_epsilon", "shannon_entropy", "type_count", "type_count_matrix",
        "typical_window",
    ), "entropy"),
    **dict.fromkeys((
        "CensusResult", "ConvergencePoint", "ExactGuessTable", "FiniteKExponents", "GuessBlock",
        "SandwichBounds", "build_guess_table", "convergence_series", "exact_mean_log_guesswork",
        "exact_moment_log", "finite_k_exponents", "log_rank_power_sum", "modal_word_count",
        "moment_sandwich", "naive_enumeration_crosscheck", "smallest_nonempty_k", "trend_holds",
        "typical_set_census",
    ), "oracle"),
    **dict.fromkeys((
        "BoundaryTypes", "ClampedOptimum", "Regime", "boundary_types", "clamped_optimum",
        "solve_cross_entropy", "tilted_type",
    ), "tilting"),
    **{m: m for m in ("asymptotics", "entropy", "oracle", "tilting")},
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Resolve a public name from its submodule once; later lookups find it bound here."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # the import statement's own path, which `python -X importtime` reports
    # (importlib.import_module's is not); it binds the submodule here
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
