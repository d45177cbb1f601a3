"""Exact finite-k ground truth for guesswork, by the method of types.

For an i.i.d. letter law every word of the same type has the same
probability, so the optimal (probability-descending) guessing order is a
sequence of type-class blocks occupying consecutive rank ranges. Moments
E[G^alpha] then cost O(#types) instead of O(m^k): each block contributes
its per-word probability times a rank-power sum over its range. Rank sums
are exact integers for alpha in {1, 2}, direct compensated sums for short
ranges, and high-precision tail formulas (Hurwitz zeta / Euler-Maclaurin)
for astronomically long ones, which keeps k ~ 10^3 affordable for m = 2.

A separate naive oracle enumerates every word individually (numpy, guarded
to m^k <= 2^22) so the two routes can be cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .asymptotics import (
    Source,
    SourceKind,
    alphas_or_default,
    scgf_model,
)
from .entropy import (
    MAX_TYPES_DEFAULT,
    WINDOW_SLACK,
    LetterDistribution,
    TypeVector,
    cross_entropy,
    enumerate_types,
    is_typical_type,
    shannon_entropy,
    type_count,
)
from .errors import (
    DistributionError,
    EmptyTypicalSetError,
    WordSpaceTooLargeError,
)

MAX_WORDS_DEFAULT = 2**22

#: two probabilities within this of each other count as tied for modal-set purposes
RANK_TIE_TOL = 1e-10

# Inner-sum routing thresholds: ranges up to _DIRECT_MAX terms are summed
# directly; the part of a range at _EM_MIN or beyond uses the corrected
# midpoint Euler-Maclaurin closed form (relative error ~ alpha^4/a^4 there);
# a long range starting below _EM_MIN is split into a direct head plus an
# Euler-Maclaurin tail.
_DIRECT_MAX = 65536
_EM_MIN = 30000
_MP_DPS = 40

_LOG2 = math.log(2.0)

# Two ints this many bits apart have a quotient outside the normal float
# range (or close enough to its bottom to lose precision as a subnormal).
_RATIO_BITS = 1000


def _lse(terms: list[float]) -> float:
    terms = [t for t in terms if t != -math.inf]
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _log_expm1(u: float) -> float:
    # log(exp(u) - 1) for u > 0 without overflow at either end
    if u > 36.8:
        return u
    if u < 1e-8:
        return math.log(u) + math.log1p(u * (0.5 + u / 6.0))
    return math.log(math.expm1(u))


def _log_far_ratio(num: int, den: int) -> float | None:
    """log(num/den) for positive ints whose quotient leaves float range, else None."""
    if abs(num.bit_length() - den.bit_length()) < _RATIO_BITS:
        return None
    return math.log(num) - math.log(den)


def _square_pyramid(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) // 6


def _direct_log_power_sum(a: int, b: int, alpha: float) -> float:
    terms = [alpha * math.log(i) for i in range(a, b + 1)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _em_log_power_sum(a: int, b: int, alpha: float) -> float:
    # corrected midpoint Euler-Maclaurin for log sum_{i=a}^{b} i^alpha:
    # integral_{a-1/2}^{b+1/2} x^alpha dx times (1 + correction ratio),
    # assembled in the log domain; needs a >= _EM_MIN for accuracy
    s = alpha + 1.0
    n = b - a + 1
    log_y = math.log(2 * a - 1) - _LOG2
    log_x = math.log(2 * b + 1) - _LOG2
    log_r = _log_far_ratio(2 * n, 2 * a - 1)
    if log_r is None:
        t = math.log1p((2 * n) / (2 * a - 1))
    elif log_r < 0.0:
        # a range negligible beside its start: the sum is n Y^alpha to float precision
        return s * log_y + log_r
    else:
        t = log_r  # log1p(r) = log(r) to float precision
    if s == 0.0:
        log_i = math.log(t)
    elif s > 0.0:
        log_i = s * log_y + _log_expm1(s * t) - math.log(s)
    else:
        log_i = s * log_y + math.log(-math.expm1(s * t)) - math.log(-s)
    # first midpoint correction: (alpha/24) * (X^(alpha-1) - Y^(alpha-1));
    # as a ratio to the integral it is O(alpha^2/a^2), exp-safe by construction
    r = (alpha / 24.0) * (
        math.exp((alpha - 1.0) * log_x - log_i) - math.exp((alpha - 1.0) * log_y - log_i)
    )
    return log_i + math.log1p(r)


def log_rank_power_sum(a: int, b: int, alpha: float) -> float:
    """log of sum_{i=a}^{b} i^alpha for exact (arbitrarily large) integers a <= b.

    alpha in {0, 1, 2} is evaluated in exact integer arithmetic; short
    ranges by compensated summation in the log domain; the rest by a direct
    head below _EM_MIN plus a corrected midpoint Euler-Maclaurin tail.
    Accurate to ~1e-10 relative or better throughout.
    """
    a = int(a)
    b = int(b)
    if a < 1 or b < a:
        raise DistributionError(f"need 1 <= a <= b, got a={a}, b={b}")
    alpha = float(alpha)
    n = b - a + 1
    if alpha == 0.0:
        return math.log(n)
    if alpha == 1.0:
        return math.log((a + b) * n // 2)
    if alpha == 2.0:
        return math.log(_square_pyramid(b) - _square_pyramid(a - 1))
    if n <= _DIRECT_MAX:
        return _direct_log_power_sum(a, b, alpha)
    if a >= _EM_MIN:
        return _em_log_power_sum(a, b, alpha)
    return _lse([
        _direct_log_power_sum(a, _EM_MIN - 1, alpha),
        _em_log_power_sum(_EM_MIN, b, alpha),
    ])


def _log_sum_of_logs(a: int, b: int) -> float:
    """log of sum_{i=a}^{b} log i (= log(lgamma(b+1) - lgamma(a))), bigint-safe."""
    a = int(a)
    b = int(b)
    if a < 1 or b < a:
        raise DistributionError(f"need 1 <= a <= b, got a={a}, b={b}")
    if b == 1:
        return -math.inf
    n = b - a + 1
    if n <= _DIRECT_MAX:
        total = math.fsum(math.log(i) for i in range(a, b + 1))
        return math.log(total) if total > 0.0 else -math.inf
    if a >= _EM_MIN:
        # integral_{a-1/2}^{b+1/2} log x dx = n log Y + Y phi(n/Y), Y = a-1/2,
        # phi(r) = (1+r)log1p(r) - r; both pieces assembled in the log domain
        log_y = math.log(2 * a - 1) - _LOG2
        term1 = math.log(n) + math.log(log_y)
        log_r = _log_far_ratio(2 * n, 2 * a - 1)
        if log_r is not None:
            # phi(r) = r^2/2 for tiny r and r (log r - 1) for huge r, to float precision
            tail = 2.0 * log_r - _LOG2 if log_r < 0.0 else log_r + math.log(log_r - 1.0)
            return _lse([term1, log_y + tail])
        r = (2 * n) / (2 * a - 1)
        if r < 1e-6:
            log_term2 = log_y + 2.0 * math.log(r) - _LOG2 + math.log1p(r * (r / 6.0 - 1.0 / 3.0))
        else:
            log_term2 = log_y + math.log((1.0 + r) * math.log1p(r) - r)
        return _lse([term1, log_term2])
    if b <= 10**15:
        return math.log(math.lgamma(b + 1) - math.lgamma(a))
    with mp.workdps(_MP_DPS):
        val = mp.loggamma(b + 1) - mp.loggamma(a)
        return float(mp.log(val))


@dataclass(frozen=True)
class GuessBlock:
    """One type class's slot in the guessing order.

    log_word_prob is per word under the source's own (already normalized)
    law; ranks start .. end = start + count - 1 are occupied, 1-based.
    """

    type_vector: TypeVector
    count: int
    start: int
    log_word_prob: float

    @property
    def end(self) -> int:
        return self.start + self.count - 1


@dataclass(frozen=True)
class ExactGuessTable:
    """Probability-descending guess order of one source at word length k.

    total_words is m^k for the unconditioned source and |T| for the
    typical-set sources; log_typical_mass is log P(W_k in T) under the
    unconditioned law (0.0 when there is no conditioning).
    """

    source: Source
    k: int
    blocks: tuple[GuessBlock, ...]
    total_words: int
    log_typical_mass: float


def build_guess_table(
    source: Source, k: int, *, max_types: int = MAX_TYPES_DEFAULT
) -> ExactGuessTable:
    """Assemble the exact guess table of `source` at word length k.

    Blocks are type classes sorted by per-word probability descending,
    equal-probability blocks adjacently in lexicographic count order
    (moments are tie-invariant; the layout is just reproducible).

    Raises
    ------
    EmptyTypicalSetError
        For the typical-set kinds when no k-type lands in the window.
    TypeSpaceTooLargeError
        When the type space exceeds max_types.
    """
    p = source.p
    typical_kind = source.kind is not SourceKind.UNCONDITIONED
    entries: list[tuple[TypeVector, int, float]] = []
    for l in enumerate_types(k, p.m, max_types):
        if typical_kind and not is_typical_type(p, source.epsilon, l):
            continue
        raw = -k * cross_entropy(l, p)
        entries.append((l, type_count(l), raw))
    if typical_kind and not entries:
        raise EmptyTypicalSetError(
            f"empty typical set: no {k}-type has per-letter log-probability in "
            f"the window for epsilon={source.epsilon}"
        )
    entries.sort(key=lambda e: (-e[2], e[0].counts))

    total = sum(n for _, n, _ in entries)
    if typical_kind:
        log_mass = _lse([math.log(n) + raw for _, n, raw in entries])
    else:
        log_mass = 0.0
        if __debug__:
            drift = _lse([math.log(n) + raw for _, n, raw in entries])
            assert abs(drift) < 1e-9, f"unconditioned table mass off by {drift}"
            assert total == p.m**k

    blocks: list[GuessBlock] = []
    start = 1
    log_total = math.log(total)
    for l, n, raw in entries:
        if source.kind is SourceKind.UNIFORM_TYPICAL:
            lw = -log_total
        elif source.kind is SourceKind.CONDITIONED:
            lw = raw - log_mass
        else:
            lw = raw
        blocks.append(GuessBlock(l, n, start, lw))
        start += n

    if __debug__:
        norm = _lse([math.log(blk.count) + blk.log_word_prob for blk in blocks])
        assert abs(norm) < 1e-9, f"table probabilities sum to exp({norm})"
    return ExactGuessTable(source, k, tuple(blocks), total, log_mass)


def exact_moment_log(table: ExactGuessTable, alpha: float) -> float:
    """log E[G^alpha] computed exactly from the block structure."""
    terms = []
    for blk in table.blocks:
        if blk.log_word_prob == -math.inf:
            continue
        terms.append(blk.log_word_prob + log_rank_power_sum(blk.start, blk.end, alpha))
    return _lse(terms)


def exact_moment(table: ExactGuessTable, alpha: float) -> float:
    """E[G^alpha]; inf when the value exceeds float range (use the log form)."""
    lv = exact_moment_log(table, alpha)
    try:
        return math.exp(lv)
    except OverflowError:
        return math.inf


def exact_mean_log_guesswork(table: ExactGuessTable) -> float:
    """E[log G], exactly, via per-block log-factorial range sums."""
    terms = []
    for blk in table.blocks:
        if blk.log_word_prob == -math.inf:
            continue
        inner = _log_sum_of_logs(blk.start, blk.end)
        if inner != -math.inf:
            terms.append(blk.log_word_prob + inner)
    lv = _lse(terms)
    return 0.0 if lv == -math.inf else math.exp(lv)


def top_guess_prob(table: ExactGuessTable) -> float:
    """P(G = 1): the modal word's probability under the table's law."""
    return math.exp(table.blocks[0].log_word_prob)


def modal_word_count(table: ExactGuessTable, tol: float = RANK_TIE_TOL) -> int:
    """Number of words tied (within tol in log-probability) for most likely."""
    top = table.blocks[0].log_word_prob
    return sum(blk.count for blk in table.blocks if blk.log_word_prob >= top - tol)


@dataclass(frozen=True)
class CensusResult:
    """Exact inventory of the typical set at one word length."""

    k: int
    types: tuple[TypeVector, ...]
    cardinality: int
    prob_mass: float
    max_type_count: int

    @property
    def is_empty(self) -> bool:
        return self.cardinality == 0

    @property
    def log_cardinality(self) -> float:
        return math.log(self.cardinality) if self.cardinality else -math.inf


def typical_set_census(
    p: LetterDistribution,
    epsilon: float,
    k: int,
    *,
    max_types: int = MAX_TYPES_DEFAULT,
) -> CensusResult:
    """List the typical k-types with exact cardinality and probability mass.

    An empty census is a valid result, not an error. Every call re-verifies
    the union-bound sandwich max_l N_k(l) <= |T| <= (k+1)^m * max_l N_k(l)
    and raises ArithmeticError if it fails.
    """
    if not isinstance(p, LetterDistribution):
        p = LetterDistribution(tuple(float(q) for q in p))
    types = [l for l in enumerate_types(k, p.m, max_types) if is_typical_type(p, epsilon, l)]
    counts = [type_count(l) for l in types]
    cardinality = sum(counts)
    if cardinality == 0:
        return CensusResult(k, (), 0, 0.0, 0)
    mass = math.exp(
        _lse([math.log(n) - k * cross_entropy(l, p) for l, n in zip(types, counts)])
    )
    max_count = max(counts)
    if not max_count <= cardinality <= (k + 1) ** p.m * max_count:
        raise ArithmeticError(
            f"census sandwich violated at k={k}: max type count {max_count}, "
            f"cardinality {cardinality}"
        )
    return CensusResult(k, tuple(types), cardinality, mass, max_count)


def smallest_nonempty_k(
    p: LetterDistribution,
    epsilon: float,
    *,
    k_max: int = 1000,
    max_types: int = MAX_TYPES_DEFAULT,
) -> int | None:
    """Smallest word length whose typical set is nonempty; None past k_max."""
    if not isinstance(p, LetterDistribution):
        p = LetterDistribution(tuple(float(q) for q in p))
    for k in range(1, k_max + 1):
        if any(is_typical_type(p, epsilon, l) for l in enumerate_types(k, p.m, max_types)):
            return k
    return None


@dataclass(frozen=True)
class FiniteKExponents:
    """All (1/k)-scaled finite-k quantities of one source at one k.

    moment_exponents pairs each requested alpha with (1/k) log E[G^alpha];
    typical_size_exponent is None for the unconditioned source.
    """

    k: int
    moment_exponents: tuple[tuple[float, float], ...]
    mean_log_exponent: float
    top_prob_exponent: float
    modal_count_exponent: float
    typical_size_exponent: float | None

    def moment_exponent(self, alpha: float) -> float:
        for a, v in self.moment_exponents:
            if a == alpha:
                return v
        raise KeyError(f"alpha={alpha} was not among the computed moments")


def finite_k_exponents(
    source: Source,
    k: int,
    *,
    alphas: tuple[float, ...] | None = None,
    max_types: int = MAX_TYPES_DEFAULT,
) -> FiniteKExponents:
    """Compute every scaled exponent of `source` at word length k exactly."""
    table = build_guess_table(source, k, max_types=max_types)
    alphas = alphas_or_default(alphas)
    moments = tuple((a, exact_moment_log(table, a) / k) for a in alphas)
    size_exp = None
    if source.kind is not SourceKind.UNCONDITIONED:
        size_exp = math.log(table.total_words) / k
    return FiniteKExponents(
        k=k,
        moment_exponents=moments,
        mean_log_exponent=exact_mean_log_guesswork(table) / k,
        top_prob_exponent=table.blocks[0].log_word_prob / k,
        modal_count_exponent=math.log(modal_word_count(table)) / k,
        typical_size_exponent=size_exp,
    )


@dataclass(frozen=True)
class SandwichBounds:
    """Method-of-types bracket around a conditioned guesswork moment."""

    k: int
    alpha: float
    lower: float
    value: float
    upper: float

    @property
    def holds(self) -> bool:
        return self.lower <= self.value <= self.upper


def moment_sandwich(
    source: Source,
    k: int,
    alpha: float,
    *,
    form: str = "auto",
    max_types: int = MAX_TYPES_DEFAULT,
) -> SandwichBounds:
    """Bracket E[G^alpha] of the conditioned source between its type bounds.

    With M = max over typical k-types of N^(1+alpha) * (word prob)/(set mass):
    the alpha >= 0 form is M/(1+alpha) <= E <= (k+1)^(m(1+alpha)) * M, and
    the -1 < alpha <= 0 form is M <= E <= (k+1)^m/(1+alpha) * M. `form`
    picks "upper"/"lower" explicitly or "auto" by the sign of alpha (the
    two are both valid at alpha = 0).
    """
    if source.kind is not SourceKind.CONDITIONED:
        raise DistributionError("moment sandwiches apply to the conditioned source")
    if form == "auto":
        form = "upper" if alpha >= 0.0 else "lower"
    if form not in ("upper", "lower"):
        raise DistributionError(f"form must be 'upper', 'lower', or 'auto', got {form!r}")
    if form == "upper" and alpha < 0.0:
        raise DistributionError("the upper-form sandwich needs alpha >= 0")
    if form == "lower" and not (-1.0 < alpha <= 0.0):
        raise DistributionError("the lower-form sandwich needs -1 < alpha <= 0")
    table = build_guess_table(source, k, max_types=max_types)
    log_m_best = max(
        (1.0 + alpha) * math.log(blk.count) + blk.log_word_prob for blk in table.blocks
    )
    best = math.exp(log_m_best)
    value = exact_moment(table, alpha)
    m = source.p.m
    if form == "upper":
        lower = best / (1.0 + alpha)
        upper = (k + 1) ** (m * (1.0 + alpha)) * best
    else:
        lower = best
        upper = (k + 1) ** m / (1.0 + alpha) * best
    return SandwichBounds(k=k, alpha=alpha, lower=lower, value=value, upper=upper)


SERIES_QUANTITIES = ("scgf", "mean_log", "top_prob", "modal_count", "typical_size")


@dataclass(frozen=True)
class ConvergencePoint:
    k: int
    value: float
    target: float

    @property
    def gap(self) -> float:
        return abs(self.value - self.target)


def convergence_series(
    source: Source,
    quantity: str,
    ks: tuple[int, ...],
    *,
    alpha: float = 1.0,
    max_types: int = MAX_TYPES_DEFAULT,
) -> tuple[ConvergencePoint, ...]:
    """Finite-k values of one quantity against its asymptotic target.

    quantity is one of SERIES_QUANTITIES: "scgf" is (1/k) log E[G^alpha]
    (target Lambda(alpha)), "mean_log" is (1/k) E log G (target Lambda'(0)),
    "top_prob" is (1/k) log P(G=1) (target the modal decay), "modal_count"
    is (1/k) log #modal words (target the plateau width), "typical_size" is
    (1/k) log |T| (target the maximal slope; typical-set kinds only).
    """
    if quantity not in SERIES_QUANTITIES:
        raise DistributionError(
            f"unknown quantity {quantity!r}; expected one of {SERIES_QUANTITIES}"
        )
    model = scgf_model(source)
    if quantity == "scgf":
        target = model(alpha)
    elif quantity == "mean_log":
        target = model.slope(0.0)
    elif quantity == "top_prob":
        target = model.modal_decay
    elif quantity == "modal_count":
        target = model.plateau_width
    else:
        if source.kind is SourceKind.UNCONDITIONED:
            raise DistributionError("typical_size needs a typical-set source kind")
        target = model.max_slope

    points = []
    for k in ks:
        if quantity == "typical_size":
            census = typical_set_census(source.p, source.epsilon, k, max_types=max_types)
            if census.is_empty:
                raise EmptyTypicalSetError(f"empty typical set at k={k}")
            value = census.log_cardinality / k
        else:
            table = build_guess_table(source, k, max_types=max_types)
            if quantity == "scgf":
                value = exact_moment_log(table, alpha) / k
            elif quantity == "mean_log":
                value = exact_mean_log_guesswork(table) / k
            elif quantity == "top_prob":
                value = table.blocks[0].log_word_prob / k
            else:
                value = math.log(modal_word_count(table)) / k
        points.append(ConvergencePoint(k=k, value=value, target=target))
    return tuple(points)


def trend_holds(points: tuple[ConvergencePoint, ...], *, zero_tol: float = 1e-12) -> bool:
    """Finite-k convergence acceptance: the endpoint gap must shrink.

    Compares the last gap against the first (finite-k corrections are
    O(log k / k), not monotone term by term through lattice effects); a
    series whose endpoints are both below zero_tol is exact and passes.
    """
    if len(points) < 2:
        return True
    first = points[0].gap
    last = points[-1].gap
    if first <= zero_tol and last <= zero_tol:
        return True
    return last < first


def naive_enumeration_crosscheck(
    source: Source,
    k: int,
    *,
    alphas: tuple[float, ...] | None = None,
    rel_tol: float = 1e-9,
    max_words: int = MAX_WORDS_DEFAULT,
    max_types: int = MAX_TYPES_DEFAULT,
) -> bool:
    """Word-by-word enumeration oracle vs the type-based table.

    Enumerates all m^k words individually (numpy), sorts by probability,
    and recomputes every moment, E log G, P(G=1), and the modal count, then
    compares against the block route. True iff everything agrees within
    rel_tol (relative, with an absolute floor of rel_tol near zero).
    """
    p = source.p
    m = p.m
    total = m**k
    if total > max_words:
        raise WordSpaceTooLargeError(
            f"word-space too large: {m}^{k} = {total} exceeds the cap {max_words}"
        )

    codes = np.arange(total, dtype=np.int64)
    counts = np.zeros((total, m), dtype=np.int32)
    rows = np.arange(total)
    rem = codes
    for _ in range(k):
        counts[rows, rem % m] += 1
        rem = rem // m
    logp = np.array(
        [math.log(q) if q > 0.0 else -math.inf for q in p.probs], dtype=np.float64
    )
    with np.errstate(invalid="ignore"):
        logw = np.where(counts > 0, counts * logp, 0.0).sum(axis=1)

    if source.kind is not SourceKind.UNCONDITIONED:
        h = shannon_entropy(p)
        cost = -logw / k
        keep = (cost >= h - source.epsilon - WINDOW_SLACK) & (
            cost <= h + source.epsilon + WINDOW_SLACK
        )
        logw = logw[keep]
        if logw.size == 0:
            raise EmptyTypicalSetError(f"empty typical set at k={k}")
    n = logw.size
    order = np.argsort(-logw, kind="stable")
    logw = logw[order]

    if source.kind is SourceKind.UNIFORM_TYPICAL:
        probs = np.full(n, 1.0 / n)
        top_prob = 1.0 / n
        modal = n
    else:
        weights = np.exp(logw)
        mass = weights.sum()
        probs = weights / mass
        top_prob = probs[0]
        modal = int(np.count_nonzero(logw >= logw[0] - RANK_TIE_TOL))

    ranks = np.arange(1, n + 1, dtype=np.float64)
    table = build_guess_table(source, k, max_types=max_types)

    def close(x: float, y: float) -> bool:
        return abs(x - y) <= rel_tol * max(1.0, abs(x), abs(y))

    for a in alphas_or_default(alphas):
        naive = float(probs @ ranks**a)
        if not close(naive, exact_moment(table, a)):
            return False
    if not close(float(probs @ np.log(ranks)), exact_mean_log_guesswork(table)):
        return False
    if not close(float(top_prob), top_guess_prob(table)):
        return False
    return modal == modal_word_count(table) and n == table.total_words
