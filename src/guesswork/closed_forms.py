"""The package's scalar layer: source kinds, the admissibility rule, and fig1's closed forms.

Everything here is plain `math` on floats, with no numpy and no numeric
module behind it, so `guessctl`'s parser and `guessctl fig1` run on the
standard library alone. `decimal` is imported by fig1's engine only, in
`_binary_bottom_exact`, the one step of `binary_closed_forms` that runs
at more than float precision, so a process loads it only when a bottom
curve value lies near its zero. `tilting` and `asymptotics` import
these names back, so each is also importable from there as the same
object.
"""

from __future__ import annotations

import math
from enum import Enum

from .entropy import FreqsLike, as_freqs, record
from .errors import DistributionError, EpsilonInadmissibleError

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
