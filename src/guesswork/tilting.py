"""Exponentially tilted letter distributions and window-boundary solvers.

The family l_a(beta) proportional to p_a^beta (beta = 1/(1+alpha)) sweeps
from the uniform distribution on the support (beta -> 0) through p itself
(beta = 1) to the uniform distribution on the most likely letters
(beta -> inf). Along it both the entropy h(l_beta) and the cross entropy
eta(beta) against p strictly decrease, so one safeguarded Newton solver in
beta (`TiltedFamily.solve`) finds the two boundary types of a typicality
window and the tilt behind every interior rate-function value. The
constrained maximiser behind the conditioned source's scaled cumulant
generating function is the tilted type clamped to those boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .entropy import (
    FreqsLike,
    TypeVector,
    as_freqs,
    cross_entropy,
    shannon_entropy,
    typical_window,
)
from .errors import AlphaDomainError, DistributionError, EpsilonInadmissibleError

NEWTON_STEP_TOL = 1e-13  # relative step in beta below which the solver stops
NEWTON_MAX_ITER = 100

# C-scale margin inside which a boundary target is treated as sitting on a
# limit of the tilted family rather than solvable at finite beta.
_EDGE_TOL = 1e-12


def _support_items(p: FreqsLike) -> list[tuple[int, float]]:
    pf = as_freqs(p)
    items = [(a, q) for a, q in enumerate(pf) if q > 0.0]
    if not items:
        raise DistributionError("distribution has empty support")
    return items


def tilted_type_beta(p: FreqsLike, beta: float) -> TypeVector:
    """Tilted type with exponent beta: l_a = p_a^beta / sum_b p_b^beta.

    Computed in the log domain so arbitrarily large beta is safe; letters
    outside the support of p keep frequency 0 exactly.
    """
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise DistributionError(f"tilt exponent must be finite and >= 0, got {beta}")
    pf = as_freqs(p)
    items = _support_items(pf)
    logw = {a: beta * math.log(q) for a, q in items}
    top = max(logw.values())
    weights = {a: math.exp(v - top) for a, v in logw.items()}
    total = math.fsum(weights.values())
    freqs = [0.0] * len(pf)
    for a, w in weights.items():
        freqs[a] = w / total
    return TypeVector(tuple(freqs))


def tilted_type(p: FreqsLike, alpha: float) -> TypeVector:
    """Tilted type at moment order alpha > -1 (beta = 1/(1+alpha))."""
    if not alpha > -1.0:
        raise AlphaDomainError(f"alpha out of domain: need alpha > -1, got {alpha}")
    return tilted_type_beta(p, 1.0 / (1.0 + alpha))


def tilted_cross_entropy(p: FreqsLike, alpha: float) -> float:
    """Cross entropy of the tilted type against p, increasing in alpha.

    Equals h(p) at alpha = 0; tends to -log max_a p_a as alpha -> -1 and to
    the uniform-on-support cross entropy as alpha -> inf.
    """
    return cross_entropy(tilted_type(p, alpha), p)


def cross_entropy_range(p: FreqsLike) -> tuple[float, float]:
    """Attainable cross-entropy limits of the tilted family, (c_min, c_max).

    c_min = -log max_a p_a (beta -> inf); c_max = -(1/m') sum log p_a over
    the support of size m' (beta -> 0). Equal iff p is uniform on its support.
    """
    items = _support_items(p)
    c_min = -math.log(max(q for _, q in items))
    c_max = -math.fsum(math.log(q) for _, q in items) / len(items)
    return c_min, c_max


def uniform_on_support(p: FreqsLike) -> TypeVector:
    """Uniform type on the support of p (the beta -> 0 limit of the family)."""
    pf = as_freqs(p)
    items = _support_items(pf)
    freqs = [0.0] * len(pf)
    for a, _ in items:
        freqs[a] = 1.0 / len(items)
    return TypeVector(tuple(freqs))


def uniform_on_argmax(p: FreqsLike) -> TypeVector:
    """Uniform type on argmax p (the beta -> inf limit of the family)."""
    pf = as_freqs(p)
    top = max(pf)
    arg = [a for a, q in enumerate(pf) if q >= top - 1e-12]
    freqs = [0.0] * len(pf)
    for a in arg:
        freqs[a] = 1.0 / len(arg)
    return TypeVector(tuple(freqs))


class TiltedFamily:
    """The tilted family of p on plain floats: no TypeVector, no overflow.

    Keeps the gaps top - log p_a >= 0 below the largest support
    log-probability `top`, so every weight exp(-beta * gap) lies in (0, 1].
    """

    __slots__ = ("top", "gaps")

    def __init__(self, p: FreqsLike):
        logs = [math.log(q) for _, q in _support_items(p)]
        self.top = max(logs)
        self.gaps = tuple(self.top - lg for lg in logs)

    def _moments(self, beta: float) -> tuple[float, float, float]:
        # log of the gap-centred normaliser, and mean and variance of the gap
        ws = [math.exp(-beta * g) for g in self.gaps]
        z = math.fsum(ws)
        mean = math.fsum(w * g for w, g in zip(ws, self.gaps)) / z
        var = math.fsum(w * (g - mean) ** 2 for w, g in zip(ws, self.gaps)) / z
        return math.log(z), mean, var

    def at(self, beta: float) -> tuple[float, float, float]:
        """(h(l_beta), eta(beta), log Z(beta)) at finite beta >= 0.

        eta is the cross entropy of l_beta against p, Z = sum_a p_a^beta.
        """
        log_z, mean, _ = self._moments(beta)
        return log_z + beta * mean, mean - self.top, log_z + beta * self.top

    def solve(
        self, target: float, lo: float = 0.0, hi: float = math.inf, *, entropy: bool
    ) -> float:
        """Tilt beta in (lo, hi) where h(l_beta) (entropy=True) or eta(beta) = target.

        Newton on both decreasing functions, dh/dbeta = -beta Var and
        deta/dbeta = -Var (Var of log p under l_beta), kept in the shrinking
        bracket by bisection (doubling while it is unbounded above). Stops
        once a step moves beta by under NEWTON_STEP_TOL relative.
        """
        beta = min(max(1.0, lo), hi)
        for _ in range(NEWTON_MAX_ITER):
            log_z, mean, var = self._moments(beta)
            if entropy:
                resid, slope = log_z + beta * mean - target, -beta * var
            else:
                resid, slope = mean - self.top - target, -var
            if resid > 0.0:
                lo = beta
            elif resid < 0.0:
                hi = beta
            else:
                return beta
            step = beta - resid / slope if slope < 0.0 else math.nan
            if not lo < step < hi:
                step = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
            if abs(step - beta) <= NEWTON_STEP_TOL * beta:
                return step
            beta = step
        return beta


def solve_cross_entropy(p: FreqsLike, target: float) -> float:
    """Find beta with cross_entropy(tilted_type_beta(p, beta), p) = target.

    Safeguarded Newton in beta on the float-only family (TiltedFamily.solve).

    Raises
    ------
    DistributionError
        If target lies outside the open attainable range of the family.
    """
    pf = as_freqs(p)
    c_min, c_max = cross_entropy_range(pf)
    if not (c_min + _EDGE_TOL < target < c_max - _EDGE_TOL):
        raise DistributionError(
            f"cross-entropy target {target!r} outside the attainable open range "
            f"({c_min!r}, {c_max!r})"
        )
    return TiltedFamily(pf).solve(target, entropy=False)


@dataclass(frozen=True)
class BoundaryTypes:
    """The two tilted types pinned to the edges of a typicality window.

    l_minus sits on the h(p) + eps edge (flatter than p, higher entropy); it
    governs the growth rate of the typical set. l_plus sits on the
    h(p) - eps edge (sharper than p, lower entropy); it governs the most
    likely typical words. When an edge is unattainable the stored type is
    the corresponding limit of the family (uniform on the support for
    l_minus, uniform on the most likely letters for l_plus) and the
    matching existence flag is cleared.
    """

    l_minus: TypeVector
    l_plus: TypeVector
    exists_minus: bool
    exists_plus: bool
    clamped_to_log_m: bool  # set when l_minus was replaced by its limit
    beta_minus: float | None  # tilt exponents of solved edges
    beta_plus: float | None

    @property
    def entropy_minus(self) -> float:
        return shannon_entropy(self.l_minus)

    @property
    def entropy_plus(self) -> float:
        return shannon_entropy(self.l_plus)


def boundary_types(p: FreqsLike, epsilon: float) -> BoundaryTypes:
    """Solve for both window-boundary types of the (p, epsilon) typical set.

    Existence: the l_minus solution exists iff h(p) + eps stays below the
    family's beta -> 0 cross-entropy limit; otherwise the uniform law on
    the support is substituted and clamped_to_log_m is set (the typical set
    then grows at the full rate log m'). The l_plus solution exists iff
    h(p) - eps stays above -log max_a p_a ("epsilon too large for l_plus"
    otherwise); its substitute is the uniform law on the most likely
    letters, the correct degenerate plateau.
    """
    pf = as_freqs(p)
    lo, hi = typical_window(pf, epsilon)
    c_min, c_max = cross_entropy_range(pf)

    clamped = hi >= c_max - _EDGE_TOL
    exists_minus = hi <= c_max + _EDGE_TOL
    if clamped:
        l_minus, beta_minus = uniform_on_support(pf), None
    else:
        beta_minus = solve_cross_entropy(pf, hi)
        l_minus = tilted_type_beta(pf, beta_minus)

    exists_plus = lo >= c_min - _EDGE_TOL
    if lo <= c_min + _EDGE_TOL:
        l_plus, beta_plus = uniform_on_argmax(pf), None
    else:
        beta_plus = solve_cross_entropy(pf, lo)
        l_plus = tilted_type_beta(pf, beta_plus)

    return BoundaryTypes(
        l_minus=l_minus,
        l_plus=l_plus,
        exists_minus=exists_minus,
        exists_plus=exists_plus,
        clamped_to_log_m=clamped,
        beta_minus=beta_minus,
        beta_plus=beta_plus,
    )


def admissible_epsilon_interval(p: FreqsLike) -> tuple[float, float]:
    """Open interval of eps for which both boundary types exist at finite tilt.

    (0, min(c_max - h(p), h(p) + log max_a p_a)); empty when p is uniform on
    its support, where every word is typical for any eps and conditioning
    is vacuous.
    """
    pf = as_freqs(p)
    h = shannon_entropy(pf)
    c_min, c_max = cross_entropy_range(pf)
    return (0.0, min(c_max - h, h - c_min))


def require_admissible_epsilon(p: FreqsLike, epsilon: float) -> None:
    """Raise EpsilonInadmissibleError unless eps sits strictly inside the interval.

    Degenerate sources (p uniform on its support) are exempt: their interval
    is empty but conditioning changes nothing, so every eps is workable.
    """
    c_min, c_max = cross_entropy_range(p)
    if c_max - c_min <= _EDGE_TOL:
        return
    lo, hi = admissible_epsilon_interval(p)
    if not (lo < epsilon < hi):
        raise EpsilonInadmissibleError(
            f"epsilon inadmissible: {epsilon!r} outside the open interval "
            f"({lo!r}, {hi!r}) for this source (epsilon too large for l_plus "
            "or the typical set already grows at full rate)",
            (lo, hi),
        )


class Regime(Enum):
    """Which branch of the clamped optimiser is active at a given alpha."""

    LOWER_CLAMP = "lower_clamp"  # tilted type pinned to l_plus
    INTERIOR = "interior"  # unconstrained tilted type
    UPPER_CLAMP = "upper_clamp"  # tilted type pinned to l_minus


@dataclass(frozen=True)
class ClampedOptimum:
    """Optimising type for the conditioned source at moment order alpha."""

    type_vector: TypeVector
    regime: Regime


def clamped_optimum(
    p: FreqsLike,
    epsilon: float,
    alpha: float,
    boundaries: BoundaryTypes | None = None,
) -> ClampedOptimum:
    """Tilted type clamped into the typicality window, for alpha > -1.

    The unconstrained tilted type is kept while its cross entropy against p
    lies strictly inside (h(p) - eps, h(p) + eps); at or beyond an edge the
    matching boundary type takes over:

        cross entropy >= h(p) + eps  ->  l_minus (upper clamp),
        cross entropy <= h(p) - eps  ->  l_plus  (lower clamp).

    Both branches agree at a breakpoint, so the scaled CGF built from this
    optimiser is continuous (and C^1) in alpha.
    """
    pf = as_freqs(p)
    if boundaries is None:
        boundaries = boundary_types(pf, epsilon)
    lo, hi = typical_window(pf, epsilon)
    eta = tilted_cross_entropy(pf, alpha)
    if eta >= hi:
        return ClampedOptimum(boundaries.l_minus, Regime.UPPER_CLAMP)
    if eta <= lo:
        return ClampedOptimum(boundaries.l_plus, Regime.LOWER_CLAMP)
    return ClampedOptimum(tilted_type(pf, alpha), Regime.INTERIOR)


def regime_breakpoints(
    p: FreqsLike,
    epsilon: float,
    boundaries: BoundaryTypes | None = None,
) -> tuple[float | None, float | None]:
    """Moment orders where the clamped optimiser switches branch.

    Returns (alpha_low, alpha_high): the lower-clamp boundary alpha_low < 0
    (None when the l_plus edge never binds) and the upper-clamp boundary
    alpha_high > 0 (None when the l_minus edge never binds). Recovered from
    the solved tilt exponents via alpha = 1/beta - 1.
    """
    if boundaries is None:
        boundaries = boundary_types(p, epsilon)
    betas = (boundaries.beta_plus, boundaries.beta_minus)
    return tuple(None if beta is None else 1.0 / beta - 1.0 for beta in betas)

