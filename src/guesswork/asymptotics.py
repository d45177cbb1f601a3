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
Legendre-Fenchel transform Lambda* takes a float or a numpy array of x and
solves h(l_beta) = x by safeguarded Newton on beta for every interior x at
once, with a flat plateau of width `plateau_width` at the left end of its
domain and a finite endpoint value at the maximal slope. Each caller
makes one solve: `legendre_transform` solves its own model's interior,
and `_scgf_models` builds fig2's three models and their curves from one
Newton loop call that solves the window edges and the Lambda* targets of
the law's tilted family together. Both hand their roots to one piecewise
evaluation, `_transforms`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# binary_closed_forms lives in the scalar layer; it is imported back because
# bench/tracing.py spans asymptotics.binary_closed_forms, and
# tests/test_bench_names.py checks that the name resolves
from .entropy import (
    DistributionError,
    FreqsLike,
    LetterDistribution,
    SourceKind,
    _checked_epsilon,
    as_distribution,
    binary_closed_forms,
    record,
    shannon_entropy,
    typical_window,
)
from .tilting import TiltedFamily, clamp_tilt

_SLOPE_EDGE_TOL = 1e-12


@record
class Source:
    """A word source: letter law p plus, for the typical-set kinds, epsilon. Validated once, here:
    p is kept as as_distribution(p), epsilon as a float that passes _checked_epsilon."""

    kind: SourceKind
    p: LetterDistribution
    epsilon: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_distribution(self.p))
        if self.kind is SourceKind.UNCONDITIONED:
            if self.epsilon is not None:
                raise DistributionError("unconditioned sources take no epsilon")
        elif self.epsilon is None:
            raise DistributionError(f"{self.kind.value} sources need an epsilon")
        else:
            object.__setattr__(self, "epsilon", _checked_epsilon(float(self.epsilon)))


def unconditioned(p: FreqsLike) -> Source:
    """The plain i.i.d. word source with letter law p."""
    return Source(SourceKind.UNCONDITIONED, p)


def conditioned(p: FreqsLike, epsilon: float) -> Source:
    """The i.i.d. source conditioned on its (p, epsilon) typical set."""
    return Source(SourceKind.CONDITIONED, p, epsilon)


def uniform_typical(p: FreqsLike, epsilon: float) -> Source:
    """The uniform law on the (p, epsilon) typical set."""
    return Source(SourceKind.UNIFORM_TYPICAL, p, epsilon)


@record
class ScgfModel:
    """Evaluated structure of one source's scaled CGF: the one way to read its laws.

    Built once by scgf_model, or by _scgf_models with the law's other
    sources on the one family it builds (window solve included); every law
    of the source is read off it: Lambda(alpha) by calling it,
    Lambda'(alpha) by `slope`, the exponent table by `exponents`, the
    regime switches by `breakpoints`, Lambda*(x) by
    legendre_transform(model, x) and the pmf approximation by
    guesswork_pmf_approx(model, k, n).

    For alpha > -1 the optimiser is l_beta, beta = 1/(1+alpha) clamped into
    `window`, and Lambda(alpha) = alpha h(l) - D(l), with D(l) = D(l || p)
    for the unconditioned and conditioned sources and 0 for the uniform one.
    The tangent line (h(l), -D(l)) is `edge_lines` at a window end and
    TiltedFamily.line at an interior tilt, so a point evaluation solves
    nothing.

    Attributes
    ----------
    source : Source
    entropy_p : float
        Shannon entropy h(p) of the letter law.
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
        (h(l), -D(l)): Lambda's slope and intercept on beta_lo and beta_hi
        (TiltedFamily.line, limits of the family included).
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

    @property
    def breakpoints(self) -> tuple[float | None, float | None]:
        """(alpha_low, alpha_high): the moment orders where the optimiser switches branch.

        Read off the clamp window by alpha = 1/beta - 1: alpha_low < 0 at
        beta_hi (the lower clamp onto l_plus), alpha_high > 0 at beta_lo (the
        upper clamp onto l_minus), None at an end that is a limit of the
        family. (None, None) for the unconditioned and uniform sources,
        whose optimiser never switches branch.
        """
        if self.source.kind is not SourceKind.CONDITIONED:
            return (None, None)
        beta_lo, beta_hi = self.window
        return (None if beta_hi == math.inf else 1.0 / beta_hi - 1.0,
                None if beta_lo == 0.0 else 1.0 / beta_lo - 1.0)

    def _line(self, alpha: float) -> tuple[float, float]:
        # (slope, intercept) of Lambda's tangent line at alpha > -1
        beta = clamp_tilt(alpha, self.window)
        if beta == self.window[0]:
            return self.edge_lines[0]
        if beta == self.window[1]:
            return self.edge_lines[1]
        return self.family.line(beta)

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

    def exponents(self) -> GrowthExponents:
        """Headline growth exponents; mean_log_rate is the exact slope Lambda'(0)."""
        excess = None
        if self.source.kind is SourceKind.CONDITIONED:
            # eta = h - intercept at alpha = 1 (beta = 1/2) against the high-entropy window edge
            h, intercept = self.family.line(0.5)
            excess = h - intercept - (self.entropy_p + self.source.epsilon)
        return GrowthExponents(
            mean_log_rate=self.slope(0.0),
            moment_rate=self(1.0),
            modal_decay=self.modal_decay,
            plateau_width=self.plateau_width,
            window_excess=excess,
        )


def scgf_model(source: Source) -> ScgfModel:
    """Assemble the piecewise description of `source`'s scaled CGF: _scgf_models of one source."""
    return _scgf_models([source])[0]


def _scgf_models(sources: Sequence[Source], xs=None):
    """The models of several sources of one letter law, all on the one TiltedFamily built here.

    The one window rule: (0, inf) for the unconditioned source (limits of the
    family, reached only as alpha -> inf, -1), else the tilts (beta-, beta+)
    of the typicality window's edges, once per distinct epsilon, so a law's
    conditioned and uniform models share one solve. With `xs`, the same
    Newton loop call (TiltedFamily.solve) also solves h(l_beta) = x for
    every x inside the family's interior (log |argmax p|, log |support|),
    read off its limit lines before any solve: that holds every source's
    interior, and for fig2's three sources is their union. Returns the
    models, and with `xs` (models, each model's Lambda*(xs) as its own
    legendre_transform gives it, bit for bit: a target's tilt is one float
    whichever solve holds it). One family, one grid pass and one loop call
    in all; DistributionError for mixed laws.
    """
    p = sources[0].p
    if any(source.p != p for source in sources):
        raise DistributionError("_scgf_models needs sources of one letter law")
    family = TiltedFamily(p)
    h = shannon_entropy(p)
    epsilons = list(dict.fromkeys(s.epsilon for s in sources if s.epsilon is not None))
    hs = ()
    if xs is not None:
        xs, xc, inside = _domain(xs, math.log(p.m))
        (width, _), (slope, _) = family.line(math.inf), family.line(0.0)
        # Lambda*'s pieces per (plateau width, max slope), each made once: the
        # family's limit lines' are the unconditioned model's
        pieces = {(width, slope): _pieces(xc, inside, width, slope)}
        interior = pieces[width, slope][2]
        hs = xc[interior]
    clamps, roots = family.solve([typical_window(p, eps) for eps in epsilons], hs)
    windows, models = {None: (0.0, math.inf), **dict(zip(epsilons, clamps))}, []
    for source in sources:
        eps = source.epsilon
        window = windows[eps]
        if source.kind is SourceKind.UNIFORM_TYPICAL:
            # every typical word is equally likely: pinned at l_minus, where D = 0
            h_minus = family.line(window[0])[0]
            model = ScgfModel(source, h, -h_minus, family, (window[0],) * 2, ((h_minus, 0.0),) * 2)
        else:
            # log max_a p_a, capped at eps - h (the typical set's likeliest words) conditioned
            modal_decay = -family.c_min if eps is None else min(-h + eps, -family.c_min)
            lines = tuple(map(family.line, window))
            model = ScgfModel(source, h, modal_decay, family, window, lines)
        models.append(model)
    if xs is None:
        return models
    ends = [(model.plateau_width, model.max_slope) for model in models]
    for end in ends:
        if end not in pieces:
            pieces[end] = _pieces(xc, inside, *end)
    return models, _transforms(models, [pieces[end] for end in ends], xs, xc, (interior, *roots))


@record
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
    """Exponent table of `source`; see ScgfModel.exponents."""
    return scgf_model(source).exponents()


def legendre_transform(model: ScgfModel, x: float | np.ndarray) -> float | np.ndarray:
    """Lambda*(x) = sup_alpha (x alpha - Lambda(alpha)) for one source.

    x is a float (the result is a float) or a numpy array (the result is an
    array of its shape); a float runs as a one-point array, so both take
    the same piecewise evaluation (_transforms): +inf outside [0, log m]
    (nan for a nan x); the exact plateau value -x - modal_decay on
    [0, plateau_width]; the endpoint value -tail_intercept at x =
    max_slope; +inf beyond max_slope; otherwise the tilts beta with
    h(l_beta) = x are found in [0, inf) by one TiltedFamily.solve call over
    this model's interior x (no Newton loop call when that is empty, as for
    the uniform source), and each supremum is evaluated in its stationary form
    x alpha - Lambda(alpha) at alpha = 1/beta - 1, which is second-order
    accurate in the solver error.
    """
    xs, xc, inside = _domain(x, math.log(model.source.p.m))
    pieces = _pieces(xc, inside, model.plateau_width, model.max_slope)
    interior = pieces[2]
    roots = model.family.solve((), xc[interior])[1]
    [rate] = _transforms([model], [pieces], xs, xc, (interior, *roots))
    return rate


def _domain(x, log_m: float):
    # x as a float array, its values flat and clipped to [0, log m], and which
    # of them lie in that range to within _SLOPE_EDGE_TOL
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    inside = (flat >= -_SLOPE_EDGE_TOL) & (flat <= log_m + _SLOPE_EDGE_TOL)
    return xs, np.clip(flat, 0.0, log_m), inside


def _pieces(xc, inside, width: float, slope: float):
    # Lambda*'s pieces on [0, log m] for a plateau of this width and this
    # maximal slope: the plateau, the endpoint and the interior between them
    plateau = inside & (xc <= width)
    rest = inside & ~plateau
    endpoint = rest & (xc >= slope - _SLOPE_EDGE_TOL) & (xc <= slope + _SLOPE_EDGE_TOL)
    return plateau, endpoint, rest & (xc < slope - _SLOPE_EDGE_TOL)


def _transforms(models, pieces, xs, xc, roots) -> list:
    """Each model's Lambda* at xs, by the piecewise rule of legendre_transform.

    xs and xc are _domain's, and `pieces` holds each model's _pieces, made
    once by the caller. `roots` is (mask, beta, h, eta): the tilts with
    h(l_beta) = xc[mask], from the caller's one TiltedFamily.solve, for a
    mask that holds every model's interior; with no interior point there is
    no tilt and no interior evaluation. An interior value is the stationary
    form x alpha - Lambda(alpha) at alpha = 1/beta - 1, from the target's
    own tilt, so it is one float whichever mask held it.
    """
    mask, beta, h, eta = roots
    if len(beta):
        alpha = 1.0 / beta - 1.0
        # Lambda(alpha) on its tangent line (slope h, intercept h - eta)
        rate = xc[mask] * alpha - (h * alpha + (h - eta))
    outside = np.where(np.isnan(xc), math.nan, math.inf)
    outs = []
    for model, (plateau, endpoint, interior) in zip(models, pieces):
        out = outside.copy()
        out[plateau] = -xc[plateau] - model.modal_decay
        out[endpoint] = -model.tail_intercept
        if len(beta):
            out[interior] = rate[interior[mask]]
        outs.append(out)
    if xs.ndim == 0:
        return [float(out[0]) for out in outs]
    return [out.reshape(xs.shape) for out in outs]


def guesswork_pmf_approx(model: ScgfModel, k: int, n: int) -> float:
    """Large-deviation approximation of P(G = n) at word length k, read off `model`.

    (1/n) exp(-k Lambda*(log(n)/k)), Lambda* by legendre_transform; on the
    plateau this collapses algebraically to exp(k * modal_decay), the modal
    word probability, and that collapsed form is returned exactly (so the
    uniform-on-typical-set approximation is constant across its plateau to
    full precision). 0.0 past max_slope, where Lambda* is +inf.
    """
    if k < 1 or n < 1:
        raise DistributionError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    x = math.log(n) / k
    if x <= model.plateau_width:
        return math.exp(k * model.modal_decay)
    rate = legendre_transform(model, x)
    if math.isinf(rate):
        return 0.0
    return math.exp(-(k * rate + math.log(n)))


def alphas_or_default(alphas: Sequence[float] | None) -> tuple[float, ...]:
    """Shared default moment orders used by oracles and the CLI."""
    if alphas is None:
        return (-0.5, 0.5, 1.0, 2.0)
    return tuple(float(a) for a in alphas)
