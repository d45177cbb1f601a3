"""Independent reference values for checking guesswork outputs.

Nothing here imports guesswork. Each quantity is recomputed from its
definition with numpy and exact Python integers, so a fast wrong answer
from the package under test cannot agree with it by construction:

- guess tables: the k-type lattice as a count matrix, exact multinomial
  block sizes and rank offsets, probability-descending order;
- rank sums: exact integers for alpha in {1, 2}; otherwise the ranks
  below HEAD term by term and the rest by Euler-Maclaurin with the B2
  correction (remainder below 1e-13 relative for ranks >= HEAD);
- scaled CGFs and rate functions: the tilted family p^beta, boundary
  types by bisection, and Lambda* as a golden-section sup over alpha.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: ranks below HEAD are summed term by term; the tail uses Euler-Maclaurin
HEAD = 4096
#: closed-window slack, the same as the package's documented membership test
WINDOW_SLACK = 1e-12
#: two per-word log-probabilities within this count as tied for the modal set
TIE_TOL = 1e-10

_LOG2 = math.log(2.0)


def lse(values) -> float:
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        return -math.inf
    top = float(a.max())
    if top == -math.inf:
        return -math.inf
    return top + math.log(float(np.exp(a - top).sum()))


def entropy(q) -> float:
    return -math.fsum(x * math.log(x) for x in q if x > 0.0)


def cross_entropy(l, logp) -> float:
    return -math.fsum(x * lp for x, lp in zip(l, logp) if x > 0.0)


def kl(l, p) -> float:
    return max(math.fsum(x * (math.log(x) - math.log(q)) for x, q in zip(l, p) if x > 0.0), 0.0)


def admissible_epsilon_max(p) -> float:
    """Upper end of the open admissible epsilon interval of a law p."""
    logp = [math.log(q) for q in p]
    h = entropy(p)
    return min(-math.fsum(logp) / len(p) - h, h + max(logp))


# --------------------------------------------------------------------------
# exact guess tables


def compositions(k: int, m: int) -> np.ndarray:
    """Every count vector of m nonnegative parts summing to k, one per row."""
    n = k + m - 1
    bars = np.array(list(itertools.combinations(range(n), m - 1)), dtype=np.int64)
    edges = np.column_stack([np.full(len(bars), -1), bars.reshape(len(bars), m - 1),
                             np.full(len(bars), n)])
    return np.diff(edges, axis=1) - 1


def multinomials(rows: np.ndarray, k: int) -> list[int]:
    fact = [math.factorial(i) for i in range(k + 1)]
    out = []
    for row in rows.tolist():
        den = 1
        for c in row:
            den *= fact[c]
        out.append(fact[k] // den)
    return out


@dataclass
class TableRef:
    """Probability-descending block structure of one source at length k."""

    k: int
    counts_matrix: np.ndarray  # letter counts of each kept type, in guess order
    sizes: list[int]  # exact words per block
    log_w: np.ndarray  # per-word log-probability of each block
    total: int
    log_mass: float  # log P(typical set) under p; 0.0 for the plain source

    @cached_property
    def starts(self) -> list[int]:
        out, s = [], 1
        for n in self.sizes:
            out.append(s)
            s += n
        return out

    @cached_property
    def tail_geometry(self):
        ends = [a + n - 1 for a, n in zip(self.starts, self.sizes)]
        return _tail_geometry(self.starts, ends)

    @property
    def empty(self) -> bool:
        return self.total == 0


def typical_mask(raw: np.ndarray, k: int, p, eps: float) -> np.ndarray:
    h = entropy(p)
    cost = -raw / k
    return (cost >= h - eps - WINDOW_SLACK) & (cost <= h + eps + WINDOW_SLACK)


def table_ref(kind: str, p, eps: float | None, k: int) -> TableRef:
    logp = np.log(np.asarray(p, dtype=np.float64))
    rows = compositions(k, len(p))
    raw = rows @ logp
    if kind != "unconditioned":
        keep = typical_mask(raw, k, p, eps)
        rows, raw = rows[keep], raw[keep]
    order = np.argsort(-raw, kind="stable")
    rows, raw = rows[order], raw[order]
    sizes = multinomials(rows, k)
    total = sum(sizes)
    if total == 0:
        return TableRef(k, rows, [], raw, 0, -math.inf)
    log_sizes = np.array([math.log(n) for n in sizes])
    if kind == "unconditioned":
        log_mass, log_w = 0.0, raw
    elif kind == "conditioned":
        log_mass = lse(log_sizes + raw)
        log_w = raw - log_mass
    else:
        log_mass = lse(log_sizes + raw)
        log_w = np.full(len(sizes), -math.log(total))
    return TableRef(k, rows, sizes, log_w, total, log_mass)


def _square_pyramid(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) // 6


def _log_expm1(u: np.ndarray) -> np.ndarray:
    # log(exp(u) - 1) for u >= 0; -inf at u = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        small = np.log(np.expm1(np.minimum(u, 700.0)))
        big = u + np.log1p(-np.exp(-u))
    return np.where(u > 30.0, big, small)


def _tail_geometry(starts: list[int], ends: list[int]):
    """Per-block logs for the Euler-Maclaurin part [max(a, HEAD), b]."""
    idx, la0, lb, L, ln = [], [], [], [], []
    for i, (a, b) in enumerate(zip(starts, ends)):
        if b < HEAD:
            continue
        a0 = max(a, HEAD)
        n = b - a0
        idx.append(i)
        la0.append(math.log(a0))
        lb.append(math.log(b))
        if n == 0:
            L.append(0.0)
            ln.append(-math.inf)
        else:
            L.append(math.log1p(n / a0) if n < a0 << 40 else math.log(b) - math.log(a0))
            ln.append(math.log(n))
    arr = lambda v: np.array(v, dtype=np.float64)  # noqa: E731
    return np.array(idx, dtype=np.int64), arr(la0), arr(lb), arr(L), arr(ln)


def log_block_sums(t: TableRef, f) -> np.ndarray:
    """log sum_{i=a}^{b} f(i) for each block [a, b]; f is a float alpha or "log".

    Ranks below HEAD come from a term-by-term prefix table; the rest from
    integral + trapezoid ends + B2 correction, assembled in the log domain.
    """
    starts = t.starts
    ends = [a + n - 1 for a, n in zip(starts, t.sizes)]
    out = np.full(len(starts), -math.inf)
    with np.errstate(divide="ignore"):
        ranks = np.arange(1, HEAD, dtype=np.float64)
        terms = np.log(ranks) if f == "log" else np.exp(f * np.log(ranks))
        prefix = np.concatenate([[0.0], np.cumsum(terms)])
        head = [(i, a, min(b, HEAD - 1)) for i, (a, b) in enumerate(zip(starts, ends)) if a < HEAD]
        if head:
            hi_idx = np.array([h[0] for h in head])
            sums = prefix[[h[2] for h in head]] - prefix[[h[1] - 1 for h in head]]
            out[hi_idx] = np.log(np.maximum(sums, 0.0))
    idx, la0, lb, L, ln = t.tail_geometry
    if idx.size == 0:
        return out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if f == "log":
            log_int = np.logaddexp(ln + np.log(la0 - 1.0), lb + np.log(L))
            main = np.logaddexp(log_int, np.log(0.5 * (la0 + lb)))
            corr = (np.exp(-lb) - np.exp(-la0)) / 12.0
            tail = main + np.log1p(corr * np.exp(-main))
        else:
            alpha = float(f)
            s = alpha + 1.0
            log_a = la0 + _log_expm1(s * L) - math.log(s)
            log_b = np.logaddexp(0.0, alpha * L) - _LOG2
            main = np.logaddexp(log_a, log_b)
            corr = (alpha / 12.0) * np.exp(-la0) * np.expm1((alpha - 1.0) * L)
            tail = alpha * la0 + main + np.log1p(corr * np.exp(-main))
    out[idx] = np.logaddexp(out[idx], tail)
    return out


def log_moment(t: TableRef, alpha: float) -> float:
    """log E[G^alpha] of the table's law."""
    starts = t.starts
    if alpha in (1.0, 2.0):
        logs = []
        for a, n in zip(starts, t.sizes):
            b = a + n - 1
            s = (a + b) * n // 2 if alpha == 1.0 else _square_pyramid(b) - _square_pyramid(a - 1)
            logs.append(math.log(s))
        log_s = np.array(logs)
    else:
        log_s = log_block_sums(t, alpha)
    return lse(t.log_w + log_s)


def mean_log(t: TableRef) -> float:
    """E[log G] of the table's law."""
    lv = lse(t.log_w + log_block_sums(t, "log"))
    return 0.0 if lv == -math.inf else math.exp(lv)


def modal_count(t: TableRef) -> int:
    top = float(t.log_w[0])
    return sum(n for n, lw in zip(t.sizes, t.log_w.tolist()) if lw >= top - TIE_TOL)


# --------------------------------------------------------------------------
# scaled CGFs and rate functions


def tilted(logp, beta: float) -> list[float]:
    top = max(logp)
    w = [math.exp(beta * (lp - top)) for lp in logp]
    s = math.fsum(w)
    return [x / s for x in w]


def _solve_beta(logp, target: float, lo: float, hi: float) -> float:
    # cross entropy of the tilted type decreases in beta
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if cross_entropy(tilted(logp, mid), logp) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class ScgfRef:
    """Scaled CGF pieces of one source, from closed forms and bisection."""

    kind: str
    p: tuple
    eps: float | None
    logp: list
    h: float
    l_minus: list | None = None
    l_plus: list | None = None
    beta_minus: float | None = None
    beta_plus: float | None = None

    @classmethod
    def build(cls, kind: str, p, eps: float | None) -> "ScgfRef":
        logp = [math.log(q) for q in p]
        ref = cls(kind, tuple(p), eps, logp, entropy(p))
        if kind != "unconditioned":
            ref.beta_minus = _solve_beta(logp, ref.h + eps, 0.0, 1.0)
            hi = 2.0
            while cross_entropy(tilted(logp, hi), logp) > ref.h - eps:
                hi *= 2.0
            ref.beta_plus = _solve_beta(logp, ref.h - eps, 1.0, hi)
            ref.l_minus = tilted(logp, ref.beta_minus)
            ref.l_plus = tilted(logp, ref.beta_plus)
        return ref

    @property
    def h_minus(self) -> float:
        return entropy(self.l_minus)

    @property
    def modal_decay(self) -> float:
        if self.kind == "unconditioned":
            return max(self.logp)
        if self.kind == "conditioned":
            return min(-self.h + self.eps, max(self.logp))
        return -self.h_minus

    @property
    def plateau_width(self) -> float:
        if self.kind == "unconditioned":
            top = max(self.p)
            return math.log(sum(1 for q in self.p if q >= top - 1e-12))
        if self.kind == "conditioned":
            return entropy(self.l_plus)
        return self.h_minus

    @property
    def max_slope(self) -> float:
        return math.log(len(self.p)) if self.kind == "unconditioned" else self.h_minus

    @property
    def tail_intercept(self) -> float:
        if self.kind == "unconditioned":
            return math.log(len(self.p)) + math.fsum(self.logp) / len(self.p)
        if self.kind == "conditioned":
            return -kl(self.l_minus, self.p)
        return 0.0

    def optimum(self, alpha: float) -> list[float]:
        l = tilted(self.logp, 1.0 / (1.0 + alpha))
        if self.kind == "conditioned":
            c = cross_entropy(l, self.logp)
            if c >= self.h + self.eps:
                return self.l_minus
            if c <= self.h - self.eps:
                return self.l_plus
        return l

    def __call__(self, alpha: float) -> float:
        if alpha <= -1.0:
            return self.modal_decay
        if self.kind == "uniform":
            return alpha * self.h_minus
        if self.kind == "unconditioned":
            b = 1.0 / (1.0 + alpha)
            return (1.0 + alpha) * lse([b * lp for lp in self.logp])
        l = self.optimum(alpha)
        return alpha * entropy(l) - kl(l, self.p)

    def mean_log_rate(self) -> float:
        return self.h_minus if self.kind == "uniform" else self.h

    def rate(self, x: float) -> float:
        """Lambda*(x) as a numerical sup of x*alpha - Lambda(alpha)."""
        if x <= self.plateau_width:
            return -x - self.modal_decay
        if abs(x - self.max_slope) <= 1e-12:
            return -self.tail_intercept
        if x > self.max_slope:
            return math.inf

        def g(a: float) -> float:
            return x * a - self(a)

        top = 1.0
        while g(2.0 * top) > g(top) and top < 2.0**40:
            top *= 2.0
        lo, hi = -1.0, 2.0 * top
        ratio = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        gc, gd = g(c), g(d)
        for _ in range(160):
            if gc >= gd:
                hi, d, gd = d, c, gc
                c = hi - ratio * (hi - lo)
                gc = g(c)
            else:
                lo, c, gc = c, d, gd
                d = lo + ratio * (hi - lo)
                gd = g(d)
        return max(gc, gd, g(-1.0))


def window_excess(p, eps: float) -> float:
    logp = [math.log(q) for q in p]
    return cross_entropy(tilted(logp, 0.5), logp) - (entropy(p) + eps)


def close(x: float, ref: float, rel_tol: float) -> bool:
    if math.isinf(ref) or math.isinf(x):
        return x == ref
    return abs(x - ref) <= rel_tol * max(1.0, abs(ref))
