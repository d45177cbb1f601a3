"""Exponentially tilted letter distributions and window-boundary solvers.

The family l_a(beta) proportional to p_a^beta (beta = 1/(1+alpha)) sweeps
from the uniform distribution on the support (beta -> 0) through p itself
(beta = 1) to the uniform distribution on the most likely letters
(beta -> inf). Along it both the entropy h(l_beta) and the cross entropy
eta(beta) against p strictly decrease, so one safeguarded Newton loop in
beta, on numpy arrays of targets bracketed from a fixed grid of tilts,
inverts both in one call: `TiltedFamily.solve` finds the tilts of
typicality windows' edges (the boundary types) and those behind a whole
array of interior rate-function values together, one moments pass per
Newton step over the targets of both kinds, so a fig2 request is one loop
call; `TiltedFamily.window` is its call for one window's edges alone.
The constrained maximiser behind the conditioned source's scaled
cumulant generating function is the tilted type clamped to those
boundaries; `clamp_tilt` is the one alpha -> beta rule, shared by
ScgfModel, `clamped_optimum` and `tilted_type`.
`TiltedFamily` is the one implementation of the family; the functions
below that return TypeVectors are views over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closed_forms import _EDGE_TOL, _log_law
from .entropy import (
    FreqsLike,
    TypeVector,
    as_freqs,
    shannon_entropy,
    typical_window,
)
from .errors import AlphaDomainError, DistributionError

NEWTON_STEP_TOL = 1e-13  # relative step in beta below which the solver stops
NEWTON_MAX_ITER = 100

# Weights per block of the Newton loop, targets times support size, so its
# temporaries stay bounded whatever the number of targets.
_BLOCK_CELLS = 1 << 15

# Tilts 2^(j/8), |j| <= 128, then 2^(j/4), 64 < j <= 192, for the roots of
# near-tied laws: every Newton call first evaluates its residual there to
# bracket and start each target, between the family's ends 0 and inf
_GRID = np.concatenate(([0.0], 2.0 ** (np.arange(-128, 129) / 8.0),
                        2.0 ** (np.arange(65, 193) / 4.0), [math.inf]))
# _GRID twice: the bracket table of a Newton call, a run per target kind, eta's first
_GRID2 = np.concatenate((_GRID, _GRID))


class TiltedFamily:
    """The tilted family of p on plain floats and numpy arrays: no TypeVector, no overflow.

    Holds the support of p and its log-probabilities `logs`, the gaps
    top - log p_a >= 0 below the largest one, so every weight
    exp(-beta * gap) lies in (0, 1], the letters `argmax` of the beta -> inf
    limit (p's maximum, ties within 1e-12), and the family's attainable
    cross entropies c_min = -log max_a p_a (beta -> inf) and
    c_max = -(1/m') sum log p_a over the support of size m' (beta -> 0).
    """

    __slots__ = ("m", "support", "logs", "top", "gaps", "argmax", "c_min", "c_max", "_grid")

    def __init__(self, p: FreqsLike):
        pf = as_freqs(p)
        self.m = len(pf)
        self.support, self.logs, self.top, self.c_min, self.c_max = _log_law(pf)
        self.gaps = self.top - np.array(self.logs)
        q_top = max(pf)
        self.argmax = tuple(a for a, q in enumerate(pf) if q >= q_top - 1e-12)
        self._grid = None

    def _freqs(self, beta: float) -> list[float]:
        # l_beta on the support, in the log domain so any finite beta >= 0 is safe
        logw = [beta * lg for lg in self.logs]
        top = max(logw)
        ws = [math.exp(v - top) for v in logw]
        total = math.fsum(ws)
        return [w / total for w in ws]

    def law(self, beta: float) -> list[float]:
        """l_beta on the whole alphabet, beta in [0, inf]; letters outside the support get 0."""
        freqs = [0.0] * self.m
        if beta == math.inf:
            for a in self.argmax:
                freqs[a] = 1.0 / len(self.argmax)
        else:
            for a, f in zip(self.support, self._freqs(beta)):
                freqs[a] = f
        return freqs

    def line(self, beta: float) -> tuple[float, float]:
        """(h(l_beta), -D(l_beta || p)) for beta in [0, inf]: Lambda's slope and intercept.

        At finite beta > 0 both are math.fsum sums over the letters, D clipped
        at 0; at beta = 1, l_beta is p and D is 0, so Lambda(0) = 0 exactly. At a
        limit l_beta is uniform on n letters (the support at beta = 0,
        argmax p at beta = inf) with cross entropy c (c_max, c_min), so the
        line is (log n, log n - c).
        """
        if beta == 0.0 or beta == math.inf:
            n, c = (self.support, self.c_max) if beta == 0.0 else (self.argmax, self.c_min)
            return math.log(len(n)), math.log(len(n)) - c
        fs = self._freqs(beta)
        h = -math.fsum(f * math.log(f) for f in fs if f > 0.0)
        if beta == 1.0:
            return h, 0.0
        d = math.fsum(f * (math.log(f) - lg) for f, lg in zip(fs, self.logs) if f > 0.0)
        return h, -max(d, 0.0)

    def _moments(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # log of the gap-centred normaliser, and mean and variance of the gap:
        # one row of weights exp(-beta * gap) in (0, 1] per beta
        ws = np.exp(-np.multiply.outer(beta, self.gaps))
        z = ws.sum(axis=1)
        mean = (ws * self.gaps).sum(axis=1) / z
        dev = self.gaps - mean[:, None]
        var = (ws * dev * dev).sum(axis=1) / z
        return np.log(z), mean, var

    def _blocks(self, n: int) -> list[slice]:
        # slices of n targets whose weight rows hold at most _BLOCK_CELLS cells each
        rows = max(1, _BLOCK_CELLS // len(self.gaps))
        return [slice(start, start + rows) for start in range(0, n, rows)]

    def _eta(self, beta, log_z, mean, var):
        # eta(beta) and its slope -Var (Var of log p under l_beta)
        return mean - self.top, -var

    def _entropy(self, beta, log_z, mean, var):
        # h(l_beta) and its slope -beta Var
        return log_z + beta * mean, -beta * var

    def _residual(self, e, beta, log_z, mean, var):
        # eta at the first e tilts and h at the rest, with their slopes
        if e == len(beta):
            return self._eta(beta, log_z, mean, var)
        if not e:
            return self._entropy(beta, log_z, mean, var)
        eta, h = (self._eta(beta[:e], log_z[:e], mean[:e], var[:e]),
                  self._entropy(beta[e:], log_z[e:], mean[e:], var[e:]))
        return np.concatenate((eta[0], h[0])), np.concatenate((eta[1], h[1]))

    def _newton(self, etas, hs):
        """Tilts beta in [0, inf) with eta(beta) = etas[i], then with h(l_beta) = hs[j].

        Both residuals, eta and h, decrease in beta. Each kind present in the
        call fills its own run of one bracket table over _GRID2 (eta's run
        first) with its values at _GRID, from moments made once per family
        on its first call; these bracket each of its targets by the two
        tilts around its root and start it at the inverse cubic Hermite
        interpolant there (where a step leaving the bracket would go, if
        outside it), from the family and the target alone: a target's tilt
        is one float whichever caller or batch solves it, and whatever
        targets of the other kind share the call. Each target then runs
        Newton, kept inside its own shrinking bracket by bisection (doubling
        while unbounded above) whenever a step leaves it, and ends at a beta
        whose residual is within an ulp of the target (at small beta a
        step's rounding noise dwarfs NEWTON_STEP_TOL), on a step that moves
        beta by under NEWTON_STEP_TOL relative, or after NEWTON_MAX_ITER
        steps. A pass evaluates `_moments` once over every live target of
        both kinds and takes each target's own residual. A pass makes beta a
        bracket end, so a step that rounds back onto it has converged; any
        other step must land strictly inside, lest a target bounce between
        two ends. Grid and targets are walked in `_blocks`.
        Returns the final betas, the eta targets' first.
        """
        ne = len(etas)
        x = np.concatenate((etas, hs), dtype=float)
        n = len(x)
        if self._grid is None:
            self._grid = self._grid_moments()
        # each kind's residual at _GRID (nan at 0 and inf) in its own run of
        # _GRID2, filled for the kinds present; a target's k indexes its kind's run
        v, s = np.full(len(_GRID2), math.nan), np.full(len(_GRID2), math.nan)
        k = np.empty(n, dtype=np.intp)
        for offset, residual, part in ((0, TiltedFamily._eta, slice(0, ne)),
                                       (len(_GRID), TiltedFamily._entropy, slice(ne, n))):
            if part.start < part.stop:
                run = slice(offset + 1, offset + len(_GRID) - 1)
                v[run], s[run] = residual(self, _GRID[1:-1], *self._grid)
                # the first tilt where v's running minimum is <= x; v > x before it, <= x at it
                k[part] = offset + np.searchsorted(-np.minimum.accumulate(v[run]), -x[part])
        lower, upper = _GRID2[k], _GRID2[k + 1]
        beta = np.empty(n)
        # a zero, nan or subnormal slope steps to nan or out of (lo, hi): it falls back
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            span = v[k + 1] - v[k]
            u = (x - v[k]) / span  # in (0, 1]; nan past the grid's ends
            start = (lower * (1.0 - u) ** 2 * (1.0 + 2.0 * u) + upper * u * u * (3.0 - 2.0 * u)
                     + span * u * (1.0 - u) * ((1.0 - u) / s[k] - u / s[k + 1]))
            fallback = np.where(upper == math.inf, 2.0 * lower, 0.5 * (lower + upper))
            start = np.where((lower <= start) & (start <= upper), start, fallback)
            for block in self._blocks(n):
                live = np.arange(n)[block]  # targets still iterating, and their state
                b, t, lo, hi = start[block], x[block], lower[block], upper[block]
                ulp = np.spacing(np.abs(t))  # a residual this near its target is a root
                e = min(max(ne - block.start, 0), len(live))  # live eta targets, first
                for _ in range(NEWTON_MAX_ITER):
                    if not len(live):
                        break
                    value, slope = self._residual(e, b, *self._moments(b))
                    resid = value - t
                    lo = np.where(resid > 0.0, b, lo)
                    hi = np.where(resid < 0.0, b, hi)
                    step = b - resid / slope
                    # b is now a bracket end, so a step that rounds back onto
                    # it fails the strict test yet has converged: keep it
                    inside = (lo < step) & (step < hi) | (step == b)
                    if not inside.all():
                        fallback = np.where(hi == math.inf, 2.0 * lo, 0.5 * (lo + hi))
                        step = np.where(inside, step, fallback)
                    root = np.abs(resid) <= ulp
                    done = root | (np.abs(step - b) <= NEWTON_STEP_TOL * b)
                    if done.any():
                        go = ~done
                        beta[live[done]] = np.where(root, b, step)[done]
                        live, b, t, lo, hi, ulp = live[go], step[go], t[go], lo[go], hi[go], ulp[go]
                        e -= int(np.count_nonzero(done[:e]))
                    else:
                        b = step
                beta[live] = b
        return beta

    def _grid_moments(self) -> list[np.ndarray]:
        """The moments at _GRID's finite tilts, evaluated in _blocks."""
        tilts = _GRID[1:-1]
        rows = [self._moments(tilts[block]) for block in self._blocks(len(tilts))]
        return [np.concatenate(moment) for moment in zip(*rows)]

    def solve(self, windows, hs=()) -> tuple[list[tuple[float, float]], tuple[np.ndarray, ...]]:
        """Clamp windows of cross-entropy windows [lo, hi], and tilts with h(l_beta) = hs: one loop.

        Every finite window edge (see `window`) and every entropy target is a
        target of one Newton loop call, made only when there is a target
        (`solve((), hs)` solves entropy targets alone). Returns the clamp
        windows in order, and (beta, h(l_beta), eta(beta)) at each entropy
        target's final beta, from one more moments pass over those tilts,
        whatever clamp window the caller reads them against. Brackets and
        starts come from the family alone, so equal targets get equal tilts
        from every caller, alone or beside any others.
        """
        limits = [(hi >= self.c_max - _EDGE_TOL, lo <= self.c_min + _EDGE_TOL)
                  for lo, hi in windows]
        etas = [eta for (lo, hi), lims in zip(windows, limits)
                for eta, lim in zip((hi, lo), lims) if not lim]
        beta = self._newton(etas, hs) if etas or len(hs) else np.empty(0)
        solved = iter(beta[: len(etas)].tolist())
        clamps = [tuple(end if lim else next(solved) for end, lim in zip((0.0, math.inf), lims))
                  for lims in limits]
        beta = beta[len(etas) :]
        h, eta = np.empty(len(beta)), np.empty(len(beta))
        for block in self._blocks(len(beta)):
            b = beta[block]
            log_z, mean, _ = self._moments(b)
            h[block], eta[block] = log_z + b * mean, mean - self.top
        return clamps, (beta, h, eta)

    def window(self, lo: float, hi: float) -> tuple[float, float]:
        """Clamp window (beta-, beta+) of the cross-entropy window [lo, hi].

        An edge within _EDGE_TOL of its own end of (c_min, c_max), or beyond
        it, is that end's limit: beta- = 0 (the uniform law on the support)
        once hi >= c_max - _EDGE_TOL, beta+ = inf (the uniform law on argmax
        p) once lo <= c_min + _EDGE_TOL. Every other edge is the finite root
        of eta(beta) = hi or lo, however near the far end it lies (one that
        rounding puts an ulp past it ends where eta is within an ulp of it);
        both are solved in one Newton loop call (`solve` of this window
        alone), whose grid pass the family keeps for its later solves.
        """
        return self.solve([(lo, hi)])[0][0]


def clamp_tilt(alpha: float, window: tuple[float, float]) -> float:
    """The tilt beta = 1/(1+alpha) clamped into the window (beta_lo, beta_hi).

    The one alpha -> beta rule of the tilted optimiser: AlphaDomainError
    unless alpha is finite and > -1. beta lands on an end of the window
    exactly when that end binds, so callers read the regime off it.
    """
    if not -1.0 < alpha < math.inf:
        raise AlphaDomainError(f"the tilted optimiser needs finite alpha > -1, got {alpha}")
    lo, hi = window
    return min(max(1.0 / (1.0 + alpha), lo), hi)


def tilted_type(p: FreqsLike, alpha: float) -> TypeVector:
    """The tilted type p^beta / sum p^beta, beta = 1/(1+alpha) unclamped, for finite alpha > -1."""
    return TypeVector(tuple(TiltedFamily(p).law(clamp_tilt(alpha, (0.0, math.inf)))))


def solve_cross_entropy(p: FreqsLike, target: float) -> float:
    """Finite beta > 0 with cross_entropy(l_beta, p) = target, l_beta = TiltedFamily(p).law(beta).

    Raises DistributionError unless c_min + _EDGE_TOL < target <
    c_max - _EDGE_TOL, the family's open attainable range (see TiltedFamily)
    less the margins where TiltedFamily.window takes a limit instead.
    """
    family = TiltedFamily(p)
    if not (family.c_min + _EDGE_TOL < target < family.c_max - _EDGE_TOL):
        raise DistributionError(
            f"cross-entropy target {target!r} outside the attainable open range "
            f"({family.c_min!r}, {family.c_max!r})"
        )
    return family._newton([target], ()).tolist()[0]


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

    @classmethod
    def of(cls, family: TiltedFamily, window: tuple[float, float]) -> BoundaryTypes:
        """Boundary types of the clamp window (beta-, beta+); an edge exists at a finite tilt."""
        beta_minus, beta_plus = window
        return cls(
            l_minus=TypeVector(tuple(family.law(beta_minus))),
            l_plus=TypeVector(tuple(family.law(beta_plus))),
            exists_minus=beta_minus > 0.0,
            exists_plus=beta_plus < math.inf,
            clamped_to_log_m=beta_minus == 0.0,
            beta_minus=beta_minus if beta_minus > 0.0 else None,
            beta_plus=beta_plus if beta_plus < math.inf else None,
        )

    @property
    def entropy_minus(self) -> float:
        return shannon_entropy(self.l_minus)

    @property
    def entropy_plus(self) -> float:
        return shannon_entropy(self.l_plus)


def boundary_types(p: FreqsLike, epsilon: float) -> BoundaryTypes:
    """Solve for both window-boundary types of the (p, epsilon) typical set.

    Existence is read off the clamp window (TiltedFamily.window): the
    l_minus solution exists iff h(p) + eps stays more than _EDGE_TOL below
    the family's beta -> 0 cross-entropy limit; otherwise the uniform law on
    the support is substituted and clamped_to_log_m is set (the typical set
    then grows at the full rate log m'). The l_plus solution exists iff
    h(p) - eps stays more than _EDGE_TOL above -log max_a p_a ("epsilon too
    large for l_plus" otherwise); its substitute is the uniform law on the
    most likely letters, the correct degenerate plateau.
    """
    family = TiltedFamily(p)
    return BoundaryTypes.of(family, family.window(*typical_window(p, epsilon)))


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


def clamped_optimum(p: FreqsLike, epsilon: float, alpha: float) -> ClampedOptimum:
    """Tilted type clamped into the typicality window, for finite alpha > -1.

    beta = 1/(1+alpha) is clamped (clamp_tilt) into the clamp window
    (beta-, beta+) of (h(p) - eps, h(p) + eps), solved by
    TiltedFamily.window, and the regime is read off where it lands:

        beta at beta-  ->  l_minus (upper clamp),
        beta at beta+  ->  l_plus  (lower clamp),

    otherwise the unconstrained tilted type l_beta (interior); an end at a
    limit of the family (0 or inf) is never reached. ScgfModel runs the same
    rule, and both branches agree at a breakpoint, so the scaled CGF built
    from this optimiser is continuous (and C^1) in alpha.
    """
    family = TiltedFamily(p)
    window = family.window(*typical_window(p, epsilon))
    beta = clamp_tilt(alpha, window)
    ends = {window[0]: Regime.UPPER_CLAMP, window[1]: Regime.LOWER_CLAMP}
    return ClampedOptimum(TypeVector(tuple(family.law(beta))), ends.get(beta, Regime.INTERIOR))
