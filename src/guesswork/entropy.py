"""Distributions, empirical types, entropy functionals, and the package's scalar layer.

Shared vocabulary for the rest of the package: its exception types
(`GuessworkError` and the eight classes under it, near the top),
probability vectors on {0, ..., m-1}, k-types (empirical letter
frequencies), Shannon entropy and cross entropy, exact counting of type
classes, and typical-set membership. All logarithms are natural; every
rate in the package is in nats.

The scalar layer follows: the source kinds (`SourceKind`), the one
admissibility rule for eps (`admissible_epsilon_interval`,
`require_admissible_epsilon`) and fig1's closed forms
(`binary_closed_forms`), plain `math` on floats with no iterative
solver. `asymptotics` imports `SourceKind` and `binary_closed_forms`
back, so each is also importable from there as the same object, and
`tilting` reads the tilted family's limits from `_log_law` and
`_EDGE_TOL`. `decimal` is imported by
`_binary_bottom_exact` alone, the one step of `binary_closed_forms` that
runs at more than float precision, so a process loads it only when a
bottom curve value lies near its zero.

Importing this module imports no numpy: the three functions on arrays
(`cross_entropy`, `_cross_entropies`, `type_count_matrix`) import it in
their bodies, so the scalar layer, guessctl's parser and fig1 run on
the standard library alone.

`record` is the package's one way to declare a frozen value class: every
public class with fields (here, in `tilting`, `asymptotics` and
`oracle`) is one. It installs what
`@dataclass(frozen=True)` would, from closures rather than generated
and exec'd source, so importing the package loads no dataclass module.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter
from typing import Iterator, Sequence, Union

SIMPLEX_TOL = 1e-12
GRAIN_TOL = 1e-9
MAX_TYPES_DEFAULT = 10**7


# The package's exception types.
class GuessworkError(Exception):
    """Base class for every error raised by this package."""


class DistributionError(GuessworkError, ValueError):
    """Malformed probability or frequency vector."""


class GrainError(GuessworkError, ValueError):
    """Frequencies are not integer multiples of 1/k for the claimed k."""


class AlphaDomainError(DistributionError):
    """Moment order outside the tilted optimiser's domain (requires finite alpha > -1)."""


class EpsilonInadmissibleError(GuessworkError, ValueError):
    """Window half-width outside the open admissible interval for this source.

    The offending interval is attached so callers can report it.
    """

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(message)
        self.interval = interval


class EmptyTypicalSetError(GuessworkError, ValueError):
    """No word of the requested length lands in the typical set."""


class TypeSpaceTooLargeError(GuessworkError):
    """A type enumeration would exceed the configured cap."""


class WordSpaceTooLargeError(GuessworkError):
    """A naive word enumeration would exceed the configured cap."""


class GridTooLargeError(GuessworkError):
    """A figure grid would exceed its fixed point cap."""


def record(cls=None, /, *, eq: bool = True):
    """Class decorator: a frozen record of the class's own annotated fields.

    The fields are the names annotated in the class body, in order; a
    class attribute of that name is the field's default. Installs
    `__init__`, which takes the fields by position or by name, fills the
    defaults and then calls `self.__post_init__()` if the class has one
    (looked up on each call, so a wrapper set on the class later runs);
    a `__setattr__` and `__delattr__` that raise AttributeError, so
    `__post_init__` writes through `object.__setattr__`; and the dataclass
    repr `Name(field=value, ...)`. With eq (the default), two records of
    one class are equal when their fields are, and hash as the tuple of
    their fields; the fields are compared as the instance dicts, which hold
    them alone, so an eq record takes no cached_property. With eq=False
    records keep identity equality.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n, known = len(names), frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    # the fields as a tuple, in order (attrgetter of one name returns it bare)
    fields = attrgetter(*names) if n > 1 else lambda self, get=attrgetter(*names): (get(self),)

    def __init__(self, *args, **kwargs):
        # the fields go straight into the instance dict, one update for those
        # given by position and one for those given by name
        values = self.__dict__
        values.update(zip(names, args))
        if kwargs:
            if not kwargs.keys() <= known:
                raise TypeError(f"{cls.__qualname__}() has no field {sorted(kwargs.keys() - known)}")
            values.update(kwargs)
        if len(values) != n or len(args) + len(kwargs) != n:
            complete(values, len(args) + len(kwargs))
        if post_init:
            self.__post_init__()

    def complete(values, given):
        # refuse surplus or repeated arguments, then fill the defaults
        if given > len(values):
            raise TypeError(f"{cls.__qualname__}() takes {n} fields, got {given} arguments "
                            "(too many by position, or one by position and by name)")
        for name in names:
            if name not in values:
                if name not in defaults:
                    raise TypeError(f"{cls.__qualname__}() missing field {name!r}")
                values[name] = defaults[name]

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{type(self).__qualname__}({pairs})"

    cls.__init__, cls.__repr__ = __init__, __repr__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    if eq:

        def __hash__(self):
            return hash(fields(self))

        cls.__eq__, cls.__hash__ = _fields_eq, __hash__
    return cls


def _fields_eq(self, other):
    # equal instance dicts are equal fields, each pair tried for identity
    # first, as a compare of the fields' tuples would
    if other.__class__ is self.__class__:
        return self.__dict__ == other.__dict__
    return NotImplemented


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen record")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a frozen record")


def _validated_simplex(values: Sequence[float], what: str) -> tuple[float, ...]:
    probs = tuple(float(v) for v in values)
    if len(probs) < 1:
        raise DistributionError(f"{what} must have at least one entry")
    if any(v < 0.0 or math.isnan(v) for v in probs):
        raise DistributionError(f"{what} entries must be nonnegative, got {probs}")
    total = math.fsum(probs)
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise DistributionError(
            f"{what} entries must sum to 1 within {SIMPLEX_TOL}, got sum {total!r}"
        )
    return probs


@record
class LetterDistribution:
    """Probability mass function on the alphabet {0, ..., m-1}, m >= 2."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = _validated_simplex(self.probs, "letter distribution")
        if len(probs) < 2:
            raise DistributionError("alphabet needs at least two letters")
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return len(self.probs)


@record
class TypeVector:
    """A point of the simplex; with `grain` k set, an empirical k-type.

    Parameters
    ----------
    freqs : tuple of float
        Letter frequencies, nonnegative, summing to 1 within 1e-12.
    grain : int or None
        When set, every frequency must be an integer multiple of 1/grain
        (within 1e-9); `counts` then recovers the exact letter counts.
    """

    freqs: tuple[float, ...]
    grain: int | None = None

    def __post_init__(self) -> None:
        freqs = _validated_simplex(self.freqs, "type vector")
        object.__setattr__(self, "freqs", freqs)
        if self.grain is not None:
            k = int(self.grain)
            if k < 1:
                raise GrainError(f"grain must be a positive integer, got {self.grain}")
            object.__setattr__(self, "grain", k)
            for f in freqs:
                if abs(f * k - round(f * k)) > GRAIN_TOL:
                    raise GrainError(
                        f"frequency {f!r} is not a k-type entry for k={k}: "
                        "not an integer multiple of 1/k"
                    )

    @classmethod
    def from_counts(cls, counts: Sequence[int], k: int | None = None) -> "TypeVector":
        counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in counts):
            raise GrainError(f"letter counts must be nonnegative, got {counts}")
        total = sum(counts)
        if k is None:
            k = total
        if total != k or k < 1:
            raise GrainError(f"counts {counts} do not sum to k={k}")
        return cls(tuple(c / k for c in counts), grain=k)

    @property
    def counts(self) -> tuple[int, ...]:
        if self.grain is None:
            raise GrainError("counts require a grained type vector")
        return tuple(round(f * self.grain) for f in self.freqs)


FreqsLike = Union[LetterDistribution, TypeVector, Sequence[float]]


def as_freqs(l: FreqsLike) -> tuple[float, ...]:
    """Coerce a distribution, type vector, or bare sequence to frequencies."""
    if isinstance(l, LetterDistribution):
        return l.probs
    if isinstance(l, TypeVector):
        return l.freqs
    return _validated_simplex(l, "frequency vector")


def as_distribution(p: FreqsLike) -> LetterDistribution:
    """A letter law as a LetterDistribution: one passes through, anything else is validated once."""
    if isinstance(p, LetterDistribution):
        return p
    return LetterDistribution(tuple(p.freqs if isinstance(p, TypeVector) else p))


def shannon_entropy(l: FreqsLike) -> float:
    """Shannon entropy -sum_a l_a log l_a in nats, with 0 log 0 = 0.

    Always in [0, log m]; 0 exactly for a point mass.
    """
    return -math.fsum(f * math.log(f) for f in as_freqs(l) if f > 0.0)


def cross_entropy(l: FreqsLike, p: FreqsLike) -> float:
    """Cross entropy -sum_a l_a log p_a in nats; +inf if l escapes p's support.

    Satisfies the decomposition cross_entropy(l, p) = shannon_entropy(l) +
    D(l || p), which the package leans on: a word of type l has per-letter
    log-probability -cross_entropy(l, p). The one-row case of _cross_entropies.
    """
    import numpy as np

    lf, pf = as_freqs(l), as_freqs(p)
    if len(lf) != len(pf):
        raise DistributionError(f"alphabet mismatch: {len(lf)} vs {len(pf)} letters")
    return float(_cross_entropies(np.array([lf]), 1, pf)[0])


def _cross_entropies(counts: np.ndarray, k: int, p: FreqsLike) -> np.ndarray:
    """cross_entropy(l, p) of each row's type l = row / k, added letter by
    letter from 0.0: the package's one type-cost rule."""
    import numpy as np

    cost = np.zeros(len(counts))
    for a, q in enumerate(as_freqs(p)):
        if q > 0.0:
            cost += (counts[:, a] / k) * -math.log(q)
        else:
            cost[counts[:, a] > 0] = math.inf
    return cost


def multinomial(counts: Sequence[int]) -> int:
    """Exact number of words with these letter counts: (sum c)!/prod(c_a!)."""
    result = 1
    remaining = sum(counts)
    for c in counts:
        result *= math.comb(remaining, c)
        remaining -= c
    return result


def type_count(l: TypeVector) -> int:
    """Exact number of length-k words of type l: the multinomial k!/prod(k l_a)!."""
    return multinomial(l.counts)


def num_types(k: int, m: int) -> int:
    """Number of k-types on m letters, C(k + m - 1, m - 1)."""
    return math.comb(k + m - 1, m - 1)


def type_count_matrix(
    k: int, m: int, max_types: int = MAX_TYPES_DEFAULT, *, last=None
) -> np.ndarray:
    """Every k-type on m letters as one row of letter counts, in lexicographic order.

    The first letter's count ascends, then recursively the rest, so for
    k=2, m=2 the rows are (0,2), (1,1), (2,0). The dtype is the smallest
    unsigned integer that holds k.

    With `last` set, the next-to-last letter's count takes, on each row
    of the first m - 2 counts, only the counts lo..hi of
    (lo, hi) = last(cols, rest) instead of 0..r (none where hi < lo):
    cols are those m - 2 count columns, rest each row's r counts left, and
    lo >= 0 and hi <= r int64 arrays. The rows made are the full matrix's
    rows with those counts, in its order.

    Raises
    ------
    TypeSpaceTooLargeError
        If C(k + m - 1, m - 1) exceeds max_types; nothing is allocated.
    """
    import numpy as np

    if k < 1 or m < 2:
        raise DistributionError(f"need k >= 1 and m >= 2, got k={k}, m={m}")
    total = num_types(k, m)
    if total > max_types:
        raise TypeSpaceTooLargeError(
            f"type-space too large: {total} k-types on m={m} letters at k={k} "
            f"exceeds the cap {max_types}"
        )
    # place the letters one at a time: a row with r counts left to place
    # becomes r + 1 rows, one per count 0..r of the next letter, in place
    rest = np.array([k], dtype=np.int64)
    cols: list[np.ndarray] = []
    for i in range(m - 1):
        lo, fan = 0, rest + 1
        if last is not None and i == m - 2:
            lo, hi = last(cols, rest)
            fan = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(rest.size), fan)
        first_child = np.cumsum(fan) - fan - lo  # each row's first child gets the count lo
        c = np.arange(parent.size) - first_child[parent]
        cols = [col[parent] for col in cols] + [c]
        rest = rest[parent] - c
    # each letter's column straight into the small dtype, with no int64 matrix between
    counts = np.empty((rest.size, m), np.min_scalar_type(k))
    for a, col in enumerate(cols + [rest]):
        counts[:, a] = col
    return counts


def enumerate_types(
    k: int, m: int, max_types: int = MAX_TYPES_DEFAULT
) -> Iterator[TypeVector]:
    """Yield every k-type on m letters, in the row order of type_count_matrix.

    Raises
    ------
    TypeSpaceTooLargeError
        If C(k + m - 1, m - 1) exceeds max_types; nothing is yielded.
    """
    rows = type_count_matrix(k, m, max_types).tolist()
    return (TypeVector.from_counts(c) for c in rows)


def _checked_epsilon(epsilon: float) -> float:
    """A typical window's half-width eps, refused unless 0 < eps < inf: the package's one eps rule."""
    if not 0.0 < epsilon < math.inf:
        raise DistributionError(f"epsilon must be positive and finite, got {epsilon}")
    return epsilon


def typical_window(p: FreqsLike, epsilon: float) -> tuple[float, float]:
    """Closed per-letter log-probability window [h(p) - eps, h(p) + eps], for 0 < eps < inf."""
    _checked_epsilon(epsilon)
    h = shannon_entropy(p)
    return (h - epsilon, h + epsilon)


# Slack on the closed window so types sitting exactly on an edge in exact
# arithmetic are not lost to float dust. _in_window is the one membership
# test that adds it, so the naive and type-based oracles agree word for word.
WINDOW_SLACK = 1e-12


def is_typical_type(p: FreqsLike, epsilon: float, l: FreqsLike) -> bool:
    """Closed-window membership test, valid for grained and ungrained types.

    A type l is typical when -sum_a l_a log p_a lands in
    [h(p) - eps, h(p) + eps]; both endpoints count as inside. Types with
    mass outside the support of p have infinite cross entropy and are
    never typical. The one-row case of _in_window.
    """
    return _in_window(cross_entropy(l, p), typical_window(p, epsilon))


def _in_window(cost, window: tuple[float, float]):
    """Mask of the costs (a float or an array) in the closed window (lo, hi) of
    typical_window, widened by WINDOW_SLACK: the package's one membership rule."""
    lo, hi = window
    return (cost >= lo - WINDOW_SLACK) & (cost <= hi + WINDOW_SLACK)


# C-scale margin inside which a boundary target is treated as sitting on a
# limit of the tilted family rather than solvable at finite beta.
_EDGE_TOL = 1e-12


class SourceKind(Enum):
    """Which word source a computation refers to."""

    UNCONDITIONED = "unconditioned"
    CONDITIONED = "conditioned"
    UNIFORM_TYPICAL = "uniform"


def _log_law(pf: tuple[float, ...]) -> tuple:
    """(support, logs, top, c_min, c_max) of the frequencies pf.

    The support's letters, their log-probabilities, the largest of those,
    and the tilted family's attainable cross entropies c_min = -log max_a p_a
    (beta -> inf) and c_max = -(1/m') sum log p_a over the support of size m'
    (beta -> 0): shared by TiltedFamily and the admissibility rule.
    """
    support = tuple(a for a, q in enumerate(pf) if q > 0.0)
    logs = tuple(math.log(pf[a]) for a in support)
    return support, logs, max(logs), -math.log(max(pf)), -math.fsum(logs) / len(logs)


def admissible_epsilon_interval(p: FreqsLike) -> tuple[float, float]:
    """Open interval of eps for which both boundary types exist at finite tilt.

    (low, min(c_max - h(p), h(p) + log max_a p_a)): past the top an edge
    of the window reaches its own end of (c_min, c_max), where
    TiltedFamily.window takes the family's limit. low = max(0, h - (c_max -
    _EDGE_TOL), (c_min + _EDGE_TOL) - h) keeps each edge h -/+ eps more than
    _EDGE_TOL inside the far end; it is 0 unless p is within about 1e-12 of
    uniform or of a point mass (binary laws within about 5e-7 of uniform or
    1e-14 of a point mass). The window solves those edges too; the lower end
    is for binary_closed_forms, whose middle curve branches on the sign of
    eta(1/2) - (h + eps), which is rounding noise near uniform. Empty when p
    is uniform on its support, where every word is typical for any eps and
    conditioning is vacuous. The one admissibility rule of the package, a
    function of p's floats alone: it builds no TiltedFamily.
    """
    low, top, _ = _admissible(as_freqs(p))
    return (low, top)


def _admissible(pf: tuple[float, ...]) -> tuple[float, float, float]:
    # (low, top, c_max - c_min). With gaps g_a = log max p - log p_a:
    # c_max - h = sum (1/m' - p_a) g_a and h - c_min = sum p_a g_a, neither a
    # difference of O(1) entropies, so the interval keeps its digits as p
    # nears uniform
    support, logs, top, c_min, c_max = _log_law(pf)
    terms = [(pf[a], top - lg) for a, lg in zip(support, logs)]
    share = 1.0 / len(terms)
    high = min(math.fsum((share - q) * g for q, g in terms), math.fsum(q * g for q, g in terms))
    h = -math.fsum(pf[a] * lg for a, lg in zip(support, logs))  # shannon_entropy's sum
    low = max(0.0, h - (c_max - _EDGE_TOL), (c_min + _EDGE_TOL) - h)
    return low, high, c_max - c_min


def require_admissible_epsilon(p: FreqsLike, epsilon: float) -> None:
    """Check that eps sits strictly inside admissible_epsilon_interval(p).

    Raises EpsilonInadmissibleError otherwise. Degenerate sources (p uniform
    on its support: c_max - c_min <= _EDGE_TOL) are exempt: their interval
    is empty but conditioning changes nothing, so every eps is workable.
    """
    lo, hi, span = _admissible(as_freqs(p))
    if span > _EDGE_TOL and not lo < epsilon < hi:
        raise EpsilonInadmissibleError(
            f"epsilon inadmissible: {epsilon!r} outside the open interval "
            f"({lo!r}, {hi!r}) for this source (epsilon too large for l_plus "
            "or the typical set already grows at full rate)",
            (lo, hi),
        )


@record
class BinaryReport:
    """Closed-form quantities for a binary source p = (p0, 1 - p0), p0 > 1/2.

    Mirrors the package's general machinery with no iterative solver, so
    the two routes can be cross-checked: boundary types are linear in
    epsilon, the first-moment rate of the unconditioned source is
    2 log(sqrt(p0) + sqrt(1 - p0)), and the conditioned first-moment rate
    switches between that value and the clamped form as window_excess
    changes sign. top/middle/bottom are the three guessing-difficulty gap
    curves (uniform vs conditioned-mean-log, uniform vs conditioned-moment,
    uniform vs unconditioned-moment).
    """

    p0: float
    epsilon: float
    l_minus_0: float
    l_plus_0: float
    entropy_p: float
    entropy_minus: float
    entropy_plus: float
    div_minus: float
    div_plus: float
    moment_rate_uncond: float
    window_excess: float
    moment_rate_cond: float
    top: float
    middle: float
    bottom: float


def _binary_divergence(p0: float, p1: float, delta: float) -> float:
    """D(l || p) for p = (p0, p1) and l = (p0 - delta, p1 + delta), to full relative precision.

    With l_a = p_a (1 + x_a), x = (-delta/p0, delta/p1): D = sum_a l_a (log1p(x_a) - x_a)
    + delta^2 (1/p0 + 1/p1), log1p(x) - x summed as -sum_{j>=2} (-x)^j / j where |x| <= 0.1.
    No difference of O(1) entropies, which loses D's digits at small delta.
    """
    def log1p_minus(x: float) -> float:
        if abs(x) > 0.1:
            return math.log1p(x) - x
        return -math.fsum((-x) ** j / j for j in range(19, 1, -1))

    return ((p0 - delta) * log1p_minus(-delta / p0) + (p1 + delta) * log1p_minus(delta / p1)
            + delta * delta * (1.0 / p0 + 1.0 / p1))


# bottom's two O(s^2) terms carry a few 1e-15 of the larger, the deficit
# (2.9e-15 at most over 20,000 draws against mpmath); where bottom is under
# this share of the deficit, so that this could pass 1.5e-13 of it, it is
# taken at _BOTTOM_DIGITS digits
_BOTTOM_NEAR_ZERO = 0.02
_BOTTOM_DIGITS = 34


def _binary_bottom_exact(p0: float, epsilon: float) -> float:
    """h(l-) - 2 log(sqrt p0 + sqrt p1) at _BOTTOM_DIGITS digits, from the exact input floats."""
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = _BOTTOM_DIGITS
        q0 = decimal.Decimal(p0)
        q1 = 1 - q0  # exact, as 1.0 - p0 is for p0 in [1/2, 1]
        x = q0 - decimal.Decimal(epsilon) / (q0.ln() - q1.ln())
        h_minus = -(x * x.ln() + (1 - x) * (1 - x).ln())
        return float(h_minus - 2 * (q0.sqrt() + q1.sqrt()).ln())


def binary_closed_forms(p0: float, epsilon: float) -> BinaryReport:
    """Closed-form report for a binary source; requires admissible epsilon.

    Raises
    ------
    DistributionError
        Unless 1/2 < p0 < 1.
    EpsilonInadmissibleError
        Unless epsilon lies strictly inside admissible_epsilon_interval((p0,
        1 - p0)), which guarantees both window boundary types exist. Near-uniform
        laws get no exemption here, unlike in require_admissible_epsilon.
    """
    if not (0.5 < p0 < 1.0):
        raise DistributionError(f"binary closed forms need p0 in (1/2, 1), got {p0}")
    p1 = 1.0 - p0
    interval = admissible_epsilon_interval((p0, p1))
    if not (interval[0] < epsilon < interval[1]):
        raise EpsilonInadmissibleError(
            f"epsilon inadmissible: {epsilon!r} outside the open interval "
            f"({interval[0]!r}, {interval[1]!r}) for p0={p0!r}",
            interval,
        )

    spread = math.log1p((p0 - p1) / p1)  # log p0 - log p1, with no cancellation near 1/2
    lm0 = p0 - epsilon / spread
    lp0 = p0 + epsilon / spread

    def h2(x: float) -> float:
        return -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x))

    h = h2(p0)
    h_minus = h2(lm0)
    # D(l-||p) = (h + eps) - h(l-) and D(l+||p) = (h - eps) - h(l+), summed with no cancellation
    div_minus = _binary_divergence(p0, p1, epsilon / spread)
    if lp0 < 1.0:
        h_plus = h2(lp0)
        div_plus = _binary_divergence(p0, p1, -epsilon / spread)
    else:
        # eps within rounding of h + log p0: l+ is the point mass (1, 0), the
        # family's beta -> inf limit, as the general window solve takes it
        lp0, h_plus, div_plus = 1.0, 0.0, -math.log(p0)

    root_sum = math.sqrt(p0) + math.sqrt(p1)
    moment_uncond = 2.0 * math.log(root_sum)
    # h(l-) - moment_uncond with no cancellation near log 2: h(l-) = log 2 - D(l-||u),
    # u uniform, and moment_uncond = log 2 + log1p(-s^2/2), s = sqrt p0 - sqrt p1
    s = (p0 - p1) / root_sum
    deficit = -math.log1p(-0.5 * s * s)
    bottom = deficit - _binary_divergence(0.5, 0.5, (0.5 - p0) + epsilon / spread)
    if abs(bottom) < _BOTTOM_NEAR_ZERO * deficit:  # the two terms cancel near bottom's zero
        bottom = _binary_bottom_exact(p0, epsilon)
    eta_1 = -(math.sqrt(p0) * math.log(p0) + math.sqrt(p1) * math.log(p1)) / root_sum
    excess = eta_1 - (h + epsilon)
    moment_cond = moment_uncond if excess <= 0.0 else h_minus - div_minus

    return BinaryReport(
        p0=p0,
        epsilon=epsilon,
        l_minus_0=lm0,
        l_plus_0=lp0,
        entropy_p=h,
        entropy_minus=h_minus,
        entropy_plus=h_plus,
        div_minus=div_minus,
        div_plus=div_plus,
        moment_rate_uncond=moment_uncond,
        window_excess=excess,
        moment_rate_cond=moment_cond,
        top=epsilon - div_minus,
        middle=bottom if excess <= 0.0 else div_minus,
        bottom=bottom,
    )
