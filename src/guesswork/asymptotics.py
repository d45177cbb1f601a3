"""Scaled cumulant generating functions and rate functions of guesswork.

Three word sources share one asymptotic machinery: the plain i.i.d. source,
the same source conditioned on its typical set, and the uniform law on the
typical set. For each, the scaled CGF of log-guesswork

    Lambda(alpha) = lim (1/k) log E exp(alpha log G)

is piecewise explicit: constant at the modal decay rate for alpha <= -1 and,
for alpha > -1, equal to alpha h(l) - D(l || p) at the optimising type l: the
tilted type l_beta, beta = 1/(1+alpha), clamped into a per-source window of
beta ((0, inf) unconditioned, the boundary tilts conditioned, pinned at the
high-entropy boundary uniform), all on the float-only TiltedFamily. The
slope Lambda' = h(l) is exact, so Lambda'(0) = h(p) (h(l-) uniform). The
Legendre-Fenchel transform Lambda* solves h(l_beta) = x by safeguarded Newton
on beta, with a flat plateau of width `plateau_width` at the left end of its
domain and a finite endpoint value at the maximal slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .entropy import (
    FreqsLike,
    LetterDistribution,
    as_freqs,
    kl_divergence,
    shannon_entropy,
)
from .errors import DistributionError, EpsilonInadmissibleError
from .tilting import (
    BoundaryTypes,
    ClampedOptimum,
    Regime,
    TiltedFamily,
    boundary_types,
    cross_entropy_range,
    regime_breakpoints,
    tilted_cross_entropy,
    tilted_type_beta,
)

_SLOPE_EDGE_TOL = 1e-12


class SourceKind(Enum):
    """Which word source a computation refers to."""

    UNCONDITIONED = "unconditioned"
    CONDITIONED = "conditioned"
    UNIFORM_TYPICAL = "uniform"


@dataclass(frozen=True)
class Source:
    """A word source: letter law p plus, for the typical-set kinds, epsilon."""

    kind: SourceKind
    p: LetterDistribution
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.kind is SourceKind.UNCONDITIONED:
            if self.epsilon is not None:
                raise DistributionError("unconditioned sources take no epsilon")
        else:
            if self.epsilon is None or not (
                self.epsilon > 0.0 and math.isfinite(self.epsilon)
            ):
                raise DistributionError(
                    f"{self.kind.value} sources need a positive epsilon, "
                    f"got {self.epsilon}"
                )


def unconditioned(p: FreqsLike) -> Source:
    """The plain i.i.d. word source with letter law p."""
    return Source(SourceKind.UNCONDITIONED, _as_distribution(p))


def conditioned(p: FreqsLike, epsilon: float) -> Source:
    """The i.i.d. source conditioned on its (p, epsilon) typical set."""
    return Source(SourceKind.CONDITIONED, _as_distribution(p), float(epsilon))


def uniform_typical(p: FreqsLike, epsilon: float) -> Source:
    """The uniform law on the (p, epsilon) typical set."""
    return Source(SourceKind.UNIFORM_TYPICAL, _as_distribution(p), float(epsilon))


def _as_distribution(p: FreqsLike) -> LetterDistribution:
    if isinstance(p, LetterDistribution):
        return p
    return LetterDistribution(tuple(as_freqs(p)))


@dataclass(frozen=True)
class ScgfModel:
    """Evaluated structure of one source's scaled CGF.

    For alpha > -1 the optimiser is l_beta, beta = 1/(1+alpha) clamped into
    `window`, and Lambda(alpha) = alpha h(l) - D(l), with D(l) = D(l || p)
    for the unconditioned and conditioned sources and 0 for the uniform one.

    Attributes
    ----------
    source : Source
    entropy_p : float
        Shannon entropy h(p) of the letter law.
    boundary : BoundaryTypes or None
        Window boundary types; None for the unconditioned source.
    modal_decay : float
        Value of Lambda on alpha <= -1: the decay exponent of the most
        likely word's probability. Always <= 0.
    family : TiltedFamily
        The letter law's tilted family, evaluated on floats.
    window : (float, float)
        Clamp window (beta_lo, beta_hi): (0, inf) unconditioned; the tilts of
        l_minus and l_plus conditioned (0 or inf for a limit of the family);
        the tilt of l_minus at both ends for the uniform source.
    edge_lines : ((float, float), (float, float))
        (h(l), -D(l)): Lambda's slope and intercept on beta_lo and beta_hi.
    plateau_width : float
        Right derivative of Lambda at alpha = -1 (the beta_hi slope): the
        growth order of the set of near-maximum-probability words, and the
        width of the flat piece of the rate function. Always >= 0.
    max_slope : float
        Limiting slope of Lambda as alpha -> inf (the beta_lo slope); the
        rate function is finite exactly on [0, max_slope].
    tail_intercept : float
        Intercept of the asymptote Lambda(alpha) ~ max_slope * alpha +
        tail_intercept (the beta_lo intercept); the rate function's value at
        max_slope is -tail_intercept.
    """

    source: Source
    entropy_p: float
    boundary: BoundaryTypes | None
    modal_decay: float
    family: TiltedFamily
    window: tuple[float, float]
    edge_lines: tuple[tuple[float, float], tuple[float, float]]

    @property
    def plateau_width(self) -> float:
        return self.edge_lines[1][0]

    @property
    def max_slope(self) -> float:
        return self.edge_lines[0][0]

    @property
    def tail_intercept(self) -> float:
        return self.edge_lines[0][1]

    def _tilt(self, alpha: float) -> float:
        if not -1.0 < alpha < math.inf:
            raise DistributionError(f"the tilted optimiser needs finite alpha > -1, got {alpha}")
        lo, hi = self.window
        return min(max(1.0 / (1.0 + alpha), lo), hi)

    def _line(self, alpha: float) -> tuple[float, float]:
        # (slope, intercept) of Lambda's tangent line at alpha > -1
        beta = self._tilt(alpha)
        if beta == self.window[0]:
            return self.edge_lines[0]
        if beta == self.window[1]:
            return self.edge_lines[1]
        h, eta, _ = self.family.at(beta)
        return h, h - eta

    def __call__(self, alpha: float) -> float:
        """Lambda(alpha), defined for every real alpha."""
        alpha = float(alpha)
        if not math.isfinite(alpha):
            raise DistributionError(f"alpha must be finite, got {alpha}")
        if alpha <= -1.0:
            return self.modal_decay
        slope, intercept = self._line(alpha)
        return slope * alpha + intercept

    def slope(self, alpha: float) -> float:
        """dLambda/dalpha for alpha > -1: the entropy of the optimising type."""
        return self._line(alpha)[0]

    def optimum(self, alpha: float) -> ClampedOptimum:
        """The optimising type and active regime at alpha > -1."""
        beta = self._tilt(alpha)
        if beta == self.window[0]:
            return ClampedOptimum(self.boundary.l_minus, Regime.UPPER_CLAMP)
        if beta == self.window[1]:
            return ClampedOptimum(self.boundary.l_plus, Regime.LOWER_CLAMP)
        return ClampedOptimum(tilted_type_beta(self.source.p, beta), Regime.INTERIOR)


def scgf_model(source: Source) -> ScgfModel:
    """Assemble the piecewise description of `source`'s scaled CGF."""
    p = source.p
    h = shannon_entropy(p)
    if source.kind is SourceKind.UNCONDITIONED:
        # the window edges are limits of the family, reached only as alpha -> inf, -1
        c_min, c_max = cross_entropy_range(p)
        log_m_support = math.log(len(p.support))
        log_modal = math.log(len(p.argmax_set()))
        bnd, modal_decay, window = None, math.log(p.max_prob), (0.0, math.inf)
        lines = ((log_m_support, log_m_support - c_max), (log_modal, log_modal - c_min))
    else:
        bnd = boundary_types(p, source.epsilon)
        beta_minus = 0.0 if bnd.beta_minus is None else bnd.beta_minus
        line_minus = (shannon_entropy(bnd.l_minus), -kl_divergence(bnd.l_minus, p))
        if source.kind is SourceKind.UNIFORM_TYPICAL:
            # every typical word is equally likely: D = 0 at the pinned l_minus
            modal_decay, window = -line_minus[0], (beta_minus, beta_minus)
            lines = ((line_minus[0], 0.0),) * 2
        else:
            modal_decay = min(-h + source.epsilon, math.log(p.max_prob))
            window = (beta_minus, math.inf if bnd.beta_plus is None else bnd.beta_plus)
            lines = (line_minus, (shannon_entropy(bnd.l_plus), -kl_divergence(bnd.l_plus, p)))
    return ScgfModel(source, h, bnd, modal_decay, TiltedFamily(p), window, lines)


def scgf(source: Source, alpha: float) -> float:
    """Lambda(alpha) for `source`; see ScgfModel for the piecewise structure."""
    return scgf_model(source)(alpha)


@dataclass(frozen=True)
class GrowthExponents:
    """Headline growth exponents of one source's guesswork.

    mean_log_rate is the growth rate of E log G: the slope of the scaled
    CGF at 0, h(p) (h(l-) for the uniform source), with no finite-difference
    error; moment_rate is the growth rate of log E G (the scaled CGF at 1).
    Jensen forces moment_rate >= mean_log_rate. window_excess is the
    conditioned source's regime indicator at alpha = 1 (positive exactly
    when the first moment is governed by the high-entropy window edge);
    None for other kinds.
    """

    mean_log_rate: float
    moment_rate: float
    modal_decay: float
    plateau_width: float
    window_excess: float | None


def growth_exponents(source: Source) -> GrowthExponents:
    """Exponent table of `source`; mean_log_rate is the exact slope Lambda'(0)."""
    model = scgf_model(source)
    excess = None
    if source.kind is SourceKind.CONDITIONED:
        excess = tilted_cross_entropy(source.p, 1.0) - (model.entropy_p + source.epsilon)
    return GrowthExponents(
        mean_log_rate=model.slope(0.0),
        moment_rate=model(1.0),
        modal_decay=model.modal_decay,
        plateau_width=model.plateau_width,
        window_excess=excess,
    )


def legendre_transform(model: ScgfModel, x: float) -> float:
    """Lambda*(x) = sup_alpha (x alpha - Lambda(alpha)) for one source.

    Piecewise evaluation: +inf outside [0, log m]; the exact plateau value
    -x - modal_decay on [0, plateau_width]; the endpoint value
    -tail_intercept at x = max_slope; +inf beyond max_slope; otherwise the
    tilt beta with h(l_beta) = x is found inside the model's clamp window by
    safeguarded Newton (TiltedFamily.solve), and the supremum is evaluated in
    its stationary form x alpha - Lambda(alpha) at alpha = 1/beta - 1, which
    is second-order accurate in the solver error.
    """
    log_m = math.log(model.source.p.m)
    if x < -_SLOPE_EDGE_TOL or x > log_m + _SLOPE_EDGE_TOL:
        return math.inf
    x = min(max(x, 0.0), log_m)
    if x <= model.plateau_width:
        return -x - model.modal_decay
    s = model.max_slope
    if x >= s - _SLOPE_EDGE_TOL:
        if x <= s + _SLOPE_EDGE_TOL:
            return -model.tail_intercept
        return math.inf
    alpha = 1.0 / model.family.solve(x, *model.window, entropy=True) - 1.0
    return x * alpha - model(alpha)


def rate_function(source: Source, x: float) -> float:
    """Large-deviation rate of (1/k) log G at x; +inf outside the domain."""
    return legendre_transform(scgf_model(source), x)


def guesswork_pmf_approx(source: Source, k: int, n: int) -> float:
    """Large-deviation approximation of P(G = n) for words of length k.

    (1/n) exp(-k Lambda*(log(n)/k)); on the plateau this collapses
    algebraically to exp(k * modal_decay), the modal word probability, and
    that collapsed form is returned exactly (so the uniform-on-typical-set
    approximation is constant across its plateau to full precision).
    """
    if k < 1 or n < 1:
        raise DistributionError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    model = scgf_model(source)
    x = math.log(n) / k
    if x <= model.plateau_width:
        return math.exp(k * model.modal_decay)
    rate = legendre_transform(model, x)
    if math.isinf(rate):
        return 0.0
    return math.exp(-(k * rate + math.log(n)))


@dataclass(frozen=True)
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


def admissible_epsilon_binary(p0: float) -> tuple[float, float]:
    """Open admissible epsilon interval for a binary source with p0 > 1/2."""
    spread = math.log(p0) - math.log1p(-p0)
    return (0.0, spread * min(p0 - 0.5, 1.0 - p0))


def binary_closed_forms(p0: float, epsilon: float) -> BinaryReport:
    """Closed-form report for a binary source; requires admissible epsilon.

    Raises
    ------
    DistributionError
        Unless 1/2 < p0 < 1.
    EpsilonInadmissibleError
        Unless epsilon lies strictly inside the admissible interval, which
        guarantees both window boundary types exist.
    """
    if not (0.5 < p0 < 1.0):
        raise DistributionError(f"binary closed forms need p0 in (1/2, 1), got {p0}")
    p1 = 1.0 - p0
    interval = admissible_epsilon_binary(p0)
    if not (interval[0] < epsilon < interval[1]):
        raise EpsilonInadmissibleError(
            f"epsilon inadmissible: {epsilon!r} outside the open interval "
            f"({interval[0]!r}, {interval[1]!r}) for p0={p0!r}",
            interval,
        )

    spread = math.log(p0) - math.log(p1)
    lm0 = p0 - epsilon / spread
    lp0 = p0 + epsilon / spread

    def h2(x: float) -> float:
        return -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x))

    h = h2(p0)
    h_minus = h2(lm0)
    h_plus = h2(lp0)
    div_minus = (h + epsilon) - h_minus
    div_plus = (h - epsilon) - h_plus

    root_sum = math.sqrt(p0) + math.sqrt(p1)
    moment_uncond = 2.0 * math.log(root_sum)
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
        top=h_minus - h,
        middle=(h_minus - moment_uncond) if excess <= 0.0 else div_minus,
        bottom=h_minus - moment_uncond,
    )


def source_breakpoints(source: Source) -> tuple[float | None, float | None]:
    """Regime breakpoints (alpha_low, alpha_high) of the conditioned optimiser.

    (None, None) for kinds whose optimiser never switches branch.
    """
    if source.kind is not SourceKind.CONDITIONED:
        return (None, None)
    return regime_breakpoints(source.p, source.epsilon)


def alphas_or_default(alphas: Sequence[float] | None) -> tuple[float, ...]:
    """Shared default moment orders used by oracles and the CLI."""
    if alphas is None:
        return (-0.5, 0.5, 1.0, 2.0)
    return tuple(float(a) for a in alphas)
