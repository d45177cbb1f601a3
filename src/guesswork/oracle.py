"""Exact finite-k ground truth for guesswork, by the method of types.

For an i.i.d. letter law every word of the same type has the same
probability, so the optimal (probability-descending) guessing order is a
sequence of type-class blocks occupying consecutive rank ranges. Moments
E[G^alpha] then cost O(#types) instead of O(m^k): each block contributes
its per-word probability times a rank-power sum over its range. A table is
held as columns, and one kernel (ranksums._log_sums) takes the rank sums of
every table of a request in one pass over their blocks: each block's ranks
below 16 as one range sum, held per tuple of alphas, and each block from
there by a midpoint Euler-Maclaurin expansion of the least order whose
stated remainder bound meets 1e-16 of the sum, however many ranks it holds
(directly below the first rank where none does, ranksums._em_min), which
keeps k ~ 10^3 affordable for m = 2. `guessctl exact-compare` builds each
distinct k's table once (_finite_k_batch), and its naive cross-check reads
that table. A typical-set table, census or scan enumerates only the typical
slab: one interval of the next-to-last count per row of the other counts
(_window_entries).

A separate naive oracle holds one float64 log-probability per word (numpy,
guarded to m^k <= 2^22), so the two routes can be cross-checked against
each other in the log domain the tables hold their values in.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import cached_property
from itertools import accumulate

import numpy as np

from .asymptotics import (
    ScgfModel,
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
    _cross_entropies,
    _in_window,
    as_distribution,
    multinomial,
    num_types,
    record,
    type_count_matrix,
    typical_window,
)
from .errors import (
    DistributionError,
    EmptyTypicalSetError,
    WordSpaceTooLargeError,
)
from .ranksums import _check_alphas, _int_parts, _log_parts, _log_sums, _lse, _lse_segments
from .ranksums import log_rank_power_sum  # re-exported as guesswork.oracle.log_rank_power_sum

MAX_WORDS_DEFAULT = 2**22

#: two probabilities within this of each other count as tied for modal-set purposes
RANK_TIE_TOL = 1e-10

#: agreement the naive cross-check asks of the table's logs, absolute on each log
#: (so relative on E[G^alpha], E log G and P(G=1))
CROSSCHECK_REL_TOL = 1e-9

#: a convergence series whose first and last gaps are both within this is exact
TREND_ZERO_TOL = 1e-12


@record
class GuessBlock:
    """One type class's slot in the guessing order.

    counts are the type's letter counts; log_word_prob is per word under
    the source's own (already normalized) law; ranks start .. end =
    start + count - 1 are occupied, 1-based.
    """

    counts: tuple[int, ...]
    count: int
    start: int
    log_word_prob: float

    @property
    def end(self) -> int:
        return self.start + self.count - 1


@record(eq=False)
class ExactGuessTable:
    """Probability-descending guess order of one source at word length k, by columns.

    Row j is the j-th type class in guessing order: counts[j] its letter
    counts, log_word_prob[j] the log-probability of each of its words under
    the source's own law, and ranks bounds[j] .. bounds[j + 1] - 1 (exact
    ints, bounds[0] = 1), so its size is a difference of bounds. total_words,
    bounds[-1] - 1, is m^k for the unconditioned source and |T| for the
    typical-set sources. size_parts holds the sizes as floats, as _int_parts
    converts them once at build time. log_typical_mass is log P(W_k in T)
    under the unconditioned law (0.0 when there is no conditioning).
    """

    source: Source
    k: int
    counts: np.ndarray
    bounds: tuple[int, ...]
    size_parts: tuple[np.ndarray, np.ndarray]
    log_word_prob: np.ndarray
    log_typical_mass: float

    @property
    def total_words(self) -> int:
        return self.bounds[-1] - 1

    @cached_property
    def blocks(self) -> tuple[GuessBlock, ...]:
        """The rows as GuessBlocks, built on first use."""
        b = self.bounds
        return tuple(map(GuessBlock, map(tuple, self.counts.tolist()),
                         map(int.__sub__, b[1:], b), b, self.log_word_prob.tolist()))


def _tables_log_sums(pairs, alphas):
    """One kernel pass over (table, scale) pairs: per pair, the scaled log E[G^alpha]
    per alpha and log E[log G]. Each table's law is normalised, so E[G^0] = 1:
    alpha = 0 is not sent to the kernel, and its log is 0.0 exactly."""
    out = []
    for logs, log_logs in _log_sums([(t.bounds, t.size_parts, t.log_word_prob, s)
                                     for t, s in pairs], [a for a in alphas if a != 0.0]):
        rest = iter(logs)
        out.append(([0.0 if a == 0.0 else next(rest) for a in alphas], log_logs))
    return out


def _class_sizes(counts: np.ndarray) -> list[int]:
    """Exact multinomial of each row of a count matrix in enumeration order.

    A row that has the counts of the row before it but one more of the
    next-to-last letter and one fewer of the last continues a run: its size
    is the previous row's size times that row's last count over its own
    next-to-last count, exactly. Each run of rows is seeded by one
    multinomial, so a typical window, which keeps an interval of each run,
    costs one multinomial per run it meets.
    """
    if not len(counts):
        return []
    pair = counts[:, -2:].astype(np.int64)
    steps = np.zeros(len(counts), dtype=bool)
    steps[1:] = (pair[1:, 0] == pair[:-1, 0] + 1) & (pair[1:, 1] == pair[:-1, 1] - 1)
    if counts.shape[1] > 2:
        steps[1:] &= (counts[1:, :-2] == counts[:-1, :-2]).all(axis=1)
    seeds = np.flatnonzero(~steps).tolist()
    nxt, last = pair[:, 0].tolist(), pair[:, 1].tolist()
    sizes = []
    for i, j in zip(seeds, seeds[1:] + [len(counts)]):
        size = multinomial(counts[i].tolist())
        sizes.append(size)
        for c, d in zip(nxt[i + 1 : j], last[i : j - 1]):
            size = size * d // c
            sizes.append(size)
    return sizes


def _slab(p: LetterDistribution, window: tuple[float, float], k: int):
    """type_count_matrix's last fan for a typical window: on each row of the
    first m - 2 counts, the candidate interval of the next-to-last count
    (_window_entries states the bound)."""
    logs = [-math.log(q) if q > 0.0 else math.inf for q in p.probs]
    *head, y, z = logs
    t_lo, t_hi = window[0] - WINDOW_SLACK, window[1] + WINDOW_SLACK  # _in_window's edges
    pad = p.m * 2.0**-50 * (max(abs(v) for v in logs if v < math.inf) + abs(t_lo) + abs(t_hi))
    e_lo, e_hi = t_lo - pad, t_hi + pad
    zero = [a for a, v in enumerate(head) if v == math.inf]

    def last(cols, rest):
        if y == math.inf or z == math.inf:  # only x = 0, or x = r, can be finite
            lo = hi = rest if y < math.inf else np.zeros_like(rest)
        else:
            cost = rest * (z / k)  # A, each row's cost at next-to-last count 0
            for c, v in zip(cols, head):
                if v < math.inf:
                    cost += c * (v / k)
            slope = (y - z) / k
            if slope == 0.0:  # one cost per row: the whole row, or none of it
                lo, hi = np.zeros_like(rest), np.where((cost < e_lo) | (cost > e_hi), -1, rest)
            else:
                x_lo, x_hi = (e_lo - cost) / slope, (e_hi - cost) / slope
                if slope < 0.0:
                    x_lo, x_hi = x_hi, x_lo
                lo = np.minimum(np.maximum(np.floor(x_lo), 0.0), rest + 1).astype(np.int64)
                hi = np.maximum(np.minimum(np.ceil(x_hi), rest), -1.0).astype(np.int64)
        for a in zero:  # a zero letter's count must be 0
            hi = np.where(cols[a] > 0, -1, hi)
        return lo, hi

    return last


def _window_entries(
    p: LetterDistribution, window: tuple[float, float] | None, k: int, max_types: int
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Letter counts, exact class sizes and per-word log-probabilities of the
    k-types in enumeration order; with a typical_window set, only the typical
    ones: the package's one pass from the count matrix to the typical rows.

    A typical window enumerates only its candidate rows (_slab). With the
    first m - 2 counts fixed and r left, a type's cost is linear in the
    next-to-last count x: A + D x, D = (L_{m-2} - L_{m-1}) / k with
    L_a = -log p_a. The float cost of _cross_entropies is within
    gamma_{m+1} max_a |L_a| of its real value (m products of two roundings
    each, m - 1 additions), and the float A within as much of its own. The
    window's edges are widened by m 2^-50 (max_a |L_a| + |lo| + |hi|), which
    covers both and the rounding of the widened edges; the ends of the
    interval of x computed there are then off by a few ulps, less than one
    count, so the counts floor(x_lo) .. ceil(x_hi), clipped to [0, r], hold
    every row the mask can keep, and the mask keeps the same rows as over
    the whole matrix, in its order. A zero letter among the first m - 2
    keeps only the rows without it; a zero next-to-last or last letter pins
    x to 0 or r; D = 0 (tied last letters) keeps a row whole or drops it by
    A. The type-space cap still counts the whole C(k + m - 1, m - 1). Two
    letters keep the whole fan: at word lengths below a few thousand its
    k + 1 rows cost less than the interval's dozen numpy calls on one row.
    """
    last = None if window is None or p.m == 2 else _slab(p, window, k)
    counts = type_count_matrix(k, p.m, max_types, last=last)
    cost = _cross_entropies(counts, k, p)
    if window is not None:
        keep = _in_window(cost, window)
        counts, cost = counts[keep], cost[keep]
    return counts, _class_sizes(counts), -k * cost


def build_guess_table(
    source: Source, k: int, *, max_types: int = MAX_TYPES_DEFAULT
) -> ExactGuessTable:
    """Assemble the exact guess table of `source` at word length k.

    Rows are type classes sorted by per-word probability descending,
    equal-probability classes adjacently in lexicographic count order
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
    window = typical_window(p, source.epsilon) if typical_kind else None
    counts, sizes, raw = _window_entries(p, window, k, max_types)
    if typical_kind and not sizes:
        raise EmptyTypicalSetError(
            f"empty typical set: no {k}-type has per-letter log-probability in "
            f"the window for epsilon={source.epsilon}"
        )
    # stable, so equal probabilities keep the lexicographic enumeration order; every
    # class of a uniform table has one per-word probability, so it keeps that order whole
    if source.kind is not SourceKind.UNIFORM_TYPICAL:
        order = np.argsort(-raw, kind="stable")
        raw = raw[order]
        counts = counts[order]
        sizes = tuple(map(sizes.__getitem__, order.tolist()))
    parts = _int_parts(sizes)
    log_sizes = _log_parts(*parts)
    bounds = tuple(accumulate(sizes, initial=1))
    total = bounds[-1] - 1

    if typical_kind:
        log_mass = _lse(log_sizes + raw)
    else:
        log_mass = 0.0
        assert total == p.m**k

    if source.kind is SourceKind.UNIFORM_TYPICAL:
        lws = np.full(len(sizes), -math.log(total))
    else:
        # log_mass is exactly 0.0 unconditioned, and x - 0.0 is x (-0.0 and -inf too)
        lws = raw - log_mass
    if __debug__:
        norm = _lse(log_sizes + lws)
        assert abs(norm) < 1e-9, f"table probabilities sum to exp({norm})"
    for a in (counts, lws, *parts):
        a.flags.writeable = False
    return ExactGuessTable(source, k, counts, bounds, parts, lws, log_mass)


def exact_moment_log(table: ExactGuessTable, alpha: float) -> float:
    """log E[G^alpha] computed exactly from the block structure; 0.0 at alpha = 0."""
    return _tables_log_sums([(table, 1.0)], (float(alpha),))[0][0][0]


def exact_mean_log_guesswork(table: ExactGuessTable) -> float:
    """E[log G] from per-block sums of log i; on a uniform table of N words its log
    is off by up to 32 ulp, about 2 ulp of log N (ranksums._log_sums)."""
    return math.exp(_tables_log_sums([(table, 1.0)], ())[0][1])


def modal_word_count(table: ExactGuessTable) -> int:
    """Number of words tied (within RANK_TIE_TOL in log-probability) for most likely."""
    lw = table.log_word_prob
    return table.bounds[int(np.count_nonzero(lw >= lw[0] - RANK_TIE_TOL))] - 1


@record(eq=False)
class CensusResult:
    """Exact inventory of the typical set at one word length.

    counts is the read-only matrix of the typical types' letter counts, one
    row per type in enumeration order; `types` (their TypeVectors) are built
    on request.
    """

    k: int
    counts: np.ndarray
    cardinality: int
    prob_mass: float
    max_type_count: int

    @property
    def types(self) -> tuple[TypeVector, ...]:
        return tuple(map(TypeVector.from_counts, self.counts.tolist()))

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
    p = as_distribution(p)
    counts, sizes, raw = _window_entries(p, typical_window(p, epsilon), k, max_types)
    counts.flags.writeable = False
    if not sizes:
        return CensusResult(k, counts, 0, 0.0, 0)
    cardinality = sum(sizes)
    mass = math.exp(_lse(_log_parts(*_int_parts(sizes)) + raw))
    max_count = max(sizes)
    if not max_count <= cardinality <= (k + 1) ** p.m * max_count:
        raise ArithmeticError(
            f"census sandwich violated at k={k}: max type count {max_count}, "
            f"cardinality {cardinality}"
        )
    return CensusResult(k, counts, cardinality, mass, max_count)


def nonempty_scan_limit(m: int, max_types: int = MAX_TYPES_DEFAULT) -> int:
    """The last word length smallest_nonempty_k scans on m letters: 1000, or
    the last k whose C(k + m - 1, m - 1) types fit max_types if that is less."""
    return next((k - 1 for k in range(1, 1001) if num_types(k, m) > max_types), 1000)


def smallest_nonempty_k(
    p: LetterDistribution,
    epsilon: float,
    *,
    max_types: int = MAX_TYPES_DEFAULT,
) -> int | None:
    """Smallest word length whose typical set is nonempty; None up to nonempty_scan_limit.

    h(p)'s window is derived once; each k costs one _window_entries pass,
    and the scan stops at the first k with a typical row.
    """
    p = as_distribution(p)
    window = typical_window(p, epsilon)
    for k in range(1, nonempty_scan_limit(p.m, max_types) + 1):
        if _window_entries(p, window, k, max_types)[1]:
            return k
    return None


@record
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
    """Compute every scaled exponent of `source` at word length k exactly.

    One table and one kernel pass, its terms scaled by 1/k, so a huge alpha
    stays finite wherever (1/k) log E[G^alpha] does; `guessctl exact-compare`
    takes every k of a request in one pass (_finite_k_batch).
    """
    table = build_guess_table(source, k, max_types=max_types)
    alphas = alphas_or_default(alphas)
    return _exponents(table, alphas, _tables_log_sums([(table, 1.0 / k)], alphas)[0])


def _exponents(table: ExactGuessTable, alphas, sums) -> FiniteKExponents:
    """FiniteKExponents of a table from its kernel results at scale 1/k."""
    k = table.k
    logs, log_mean_log = sums
    size_exp = None
    if table.source.kind is not SourceKind.UNCONDITIONED:
        size_exp = math.log(table.total_words) / k
    return FiniteKExponents(
        k=k,
        moment_exponents=tuple(zip(alphas, logs)),
        mean_log_exponent=math.exp(log_mean_log) / k,
        top_prob_exponent=float(table.log_word_prob[0]) / k,
        modal_count_exponent=math.log(modal_word_count(table)) / k,
        typical_size_exponent=size_exp,
    )


def _finite_k_batch(
    source: Source,
    ks,
    alphas: tuple[float, ...] | None,
    *,
    max_types: int = MAX_TYPES_DEFAULT,
    max_words: int = 0,
) -> tuple[dict[int, FiniteKExponents | None], list[tuple[int, bool]]]:
    """finite_k_exponents at every distinct k of ks, and the naive cross-check
    at each of them with m^k <= max_words (none when max_words is 0), from one
    kernel pass.

    The alphas are checked first; then each distinct k's table is built once
    (None for an empty typical set), and one kernel pass takes every table at
    scale 1/k and, unscaled, every table the cross-check reads. Returns the
    exponents by k, in first-seen order, and (k, ok) per cross-checked k.
    """
    alphas = alphas_or_default(alphas)
    _check_alphas(alphas)
    tables = {}
    for k in dict.fromkeys(ks):
        try:
            tables[k] = build_guess_table(source, k, max_types=max_types)
        except EmptyTypicalSetError:
            tables[k] = None
    built = [t for t in tables.values() if t is not None]
    checked = [t for t in built if max_words and source.p.m**t.k <= max_words]
    sums = _tables_log_sums([(t, 1.0 / t.k) for t in built] + [(t, 1.0) for t in checked],
                            alphas)
    scaled = dict(zip((t.k for t in built), sums))
    exps = {k: None if t is None else _exponents(t, alphas, scaled[k]) for k, t in tables.items()}
    checks = [(t.k, _crosscheck(t, alphas, s, _naive_word_logs(source, t.k, max_words)))
              for t, s in zip(checked, sums[len(built):])]
    return exps, checks


@record
class SandwichBounds:
    """Method-of-types bracket around a conditioned guesswork moment.

    The bracket is held in the log domain, where `holds` compares it, so it
    stays finite past float range.
    """

    k: int
    alpha: float
    log_lower: float
    log_value: float
    log_upper: float

    @property
    def holds(self) -> bool:
        return self.log_lower <= self.log_value <= self.log_upper


def moment_sandwich(
    source: Source,
    k: int,
    alpha: float,
    *,
    max_types: int = MAX_TYPES_DEFAULT,
) -> SandwichBounds:
    """Bracket E[G^alpha] of the conditioned source between its type bounds.

    With M = max over typical k-types of N^(1+alpha) * (word prob)/(set mass),
    the sign of alpha picks the form: for alpha >= 0,
    M/(1+alpha) <= E <= (k+1)^(m(1+alpha)) * M, and for -1 < alpha < 0,
    M <= E <= (k+1)^m/(1+alpha) * M (at alpha = 0 both are
    M <= E <= (k+1)^m * M). These are Arikan's guessing inequalities (IEEE
    Trans. Inf. Theory 42(1), 1996) applied type by type.
    """
    if source.kind is not SourceKind.CONDITIONED:
        raise DistributionError("moment sandwiches apply to the conditioned source")
    if not math.isfinite(alpha):
        raise DistributionError(f"alpha must be finite, got {alpha}")
    if alpha <= -1.0:
        raise DistributionError(f"the moment sandwich needs alpha > -1, got {alpha}")
    table = build_guess_table(source, k, max_types=max_types)
    log_best = float(np.max((1.0 + alpha) * _log_parts(*table.size_parts) + table.log_word_prob))
    log_k1 = math.log(k + 1)
    m = source.p.m
    if alpha >= 0.0:
        log_lower = log_best - math.log1p(alpha)
        log_upper = m * (1.0 + alpha) * log_k1 + log_best
    else:
        log_lower = log_best
        log_upper = m * log_k1 - math.log1p(alpha) + log_best
    return SandwichBounds(k, alpha, log_lower, exact_moment_log(table, alpha), log_upper)


SERIES_QUANTITIES = ("scgf", "mean_log", "top_prob", "modal_count", "typical_size")


@record
class ConvergencePoint:
    k: int
    value: float
    target: float

    @property
    def gap(self) -> float:
        return abs(self.value - self.target)


def convergence_points(
    exponents: Iterable[FiniteKExponents],
    model: ScgfModel,
    quantity: str,
    alpha: float = 1.0,
) -> tuple[ConvergencePoint, ...]:
    """One quantity of each FiniteKExponents against its asymptotic target.

    quantity is one of SERIES_QUANTITIES: "scgf" is (1/k) log E[G^alpha]
    (target Lambda(alpha)), "mean_log" is (1/k) E log G (target Lambda'(0)),
    "top_prob" is (1/k) log P(G=1) (target the modal decay), "modal_count"
    is (1/k) log #modal words (target the plateau width), "typical_size" is
    (1/k) log |T| (target the maximal slope; typical-set kinds only). The
    target is taken before `exponents` is iterated, so an invalid alpha is
    reported before a lazily built table.
    """
    if quantity == "scgf":
        target, field = model(alpha), None
    elif quantity == "mean_log":
        target, field = model.slope(0.0), "mean_log_exponent"
    elif quantity == "top_prob":
        target, field = model.modal_decay, "top_prob_exponent"
    elif quantity == "modal_count":
        target, field = model.plateau_width, "modal_count_exponent"
    elif quantity == "typical_size":
        target, field = model.max_slope, "typical_size_exponent"
    else:
        raise DistributionError(
            f"unknown quantity {quantity!r}; expected one of {SERIES_QUANTITIES}"
        )
    return tuple(
        ConvergencePoint(
            e.k, e.moment_exponent(alpha) if field is None else getattr(e, field), target
        )
        for e in exponents
    )


def convergence_series(
    source: Source,
    quantity: str,
    ks: tuple[int, ...],
    *,
    alpha: float = 1.0,
    max_types: int = MAX_TYPES_DEFAULT,
) -> tuple[ConvergencePoint, ...]:
    """Finite-k values of one quantity against its asymptotic target.

    A view over finite_k_exponents at each k; see convergence_points for
    the quantities and their targets.
    """
    if quantity == "typical_size" and source.kind is SourceKind.UNCONDITIONED:
        raise DistributionError("typical_size needs a typical-set source kind")
    alphas = (alpha,) if quantity == "scgf" else ()
    exponents = (
        finite_k_exponents(source, k, alphas=alphas, max_types=max_types) for k in ks
    )
    return convergence_points(exponents, scgf_model(source), quantity, alpha)


def trend_holds(points: tuple[ConvergencePoint, ...]) -> bool:
    """Finite-k convergence acceptance: the endpoint gap must shrink.

    Compares the last gap against the first (finite-k corrections are
    O(log k / k), not monotone term by term through lattice effects); a
    series whose endpoints are both within TREND_ZERO_TOL is exact and passes.
    """
    if len(points) < 2:
        return True
    first = points[0].gap
    last = points[-1].gap
    if first <= TREND_ZERO_TOL and last <= TREND_ZERO_TOL:
        return True
    return last < first


def _naive_word_logs(source: Source, k: int, max_words: int) -> np.ndarray:
    """The normalised log-probability of every word of the source at length k,
    descending: the naive oracle's side of the cross-check.

    One float64 per word (numpy), built one digit at a time; the typical
    ones are kept by the table's own window mask.
    """
    p = source.p
    m = p.m
    total = m**k
    if total > max_words:
        raise WordSpaceTooLargeError(
            f"word-space too large: {m}^{k} = {total} exceeds the cap {max_words}"
        )

    # log-probability of word code c = sum_j d_j m^j, built one digit at a
    # time from the top: the words of j + 1 digits are d * m^j + (a word of j)
    with np.errstate(divide="ignore"):
        logp = np.log(np.asarray(p.probs, dtype=np.float64))  # a zero letter is -inf
    logw = np.zeros(1)
    for _ in range(k):
        logw = (logp[:, None] + logw).ravel()

    if source.kind is not SourceKind.UNCONDITIONED:
        logw = logw[_in_window(-logw / k, typical_window(p, source.epsilon))]
        if logw.size == 0:
            raise EmptyTypicalSetError(f"empty typical set at k={k}")
    if source.kind is SourceKind.UNIFORM_TYPICAL:
        logw.fill(0.0)  # every typical word equally likely
    else:
        np.negative(logw, out=logw)  # descending, sorted in place
        logw.sort()
        np.negative(logw, out=logw)
    logw -= _lse(logw)  # normalised in place
    return logw


def _crosscheck(table: ExactGuessTable, alphas, sums, log_prob: np.ndarray) -> bool:
    """The naive oracle's word logs (_naive_word_logs) against a table and its
    unscaled kernel results `sums` at `alphas`: every log within
    CROSSCHECK_REL_TOL, and the modal and total word counts equal."""
    n = log_prob.size
    log_ranks = np.log(np.arange(1, n + 1, dtype=np.float64))
    scratch = np.empty(n)  # every log-sum-exp below works in place in this one array
    row, size = scratch.reshape(1, n), np.array([n])

    def log_mean(terms):  # log E[exp terms] under the word law, terms held in scratch
        np.add(log_prob, terms, out=scratch)
        return _lse_segments(row, [[1.0]], size)[0][0]

    logs, log_mean_log = sums
    # log log 1 = -inf drops rank 1 from E log G; a huge alpha overflows to inf, as the table's
    with np.errstate(divide="ignore", over="ignore"):
        pairs = [(log_mean(np.multiply(log_ranks, a, out=scratch)), lv)
                 for a, lv in zip(alphas, logs)]
        pairs.append((log_mean(np.log(log_ranks, out=scratch)), log_mean_log))
    pairs.append((float(log_prob[0]), float(table.log_word_prob[0])))
    if not all(x == y or abs(x - y) <= CROSSCHECK_REL_TOL for x, y in pairs):
        return False
    modal = int(np.count_nonzero(log_prob >= log_prob[0] - RANK_TIE_TOL))
    return modal == modal_word_count(table) and n == table.total_words


def naive_enumeration_crosscheck(
    source: Source,
    k: int,
    *,
    alphas: tuple[float, ...] | None = None,
    max_words: int = MAX_WORDS_DEFAULT,
    max_types: int = MAX_TYPES_DEFAULT,
) -> bool:
    """Word-by-word enumeration oracle vs the type-based table.

    Enumerates all m^k words individually, one float64 log-probability per
    word (numpy), keeps the typical ones by the table's own window mask,
    sorts by probability, and recomputes every log moment, log E log G,
    log P(G=1) and the modal count in the log domain, as the table holds
    them, then compares against the block route. True iff every log agrees
    within CROSSCHECK_REL_TOL and the counts are equal.
    """
    log_prob = _naive_word_logs(source, k, max_words)
    table = build_guess_table(source, k, max_types=max_types)
    alphas = alphas_or_default(alphas)
    return _crosscheck(table, alphas, _tables_log_sums([(table, 1.0)], alphas)[0], log_prob)
