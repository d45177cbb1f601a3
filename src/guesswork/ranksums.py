"""Exact rank sums over the blocks of guess tables.

A guess table puts each type class on a range of consecutive ranks, so
every finite-k moment is a weighted sum over blocks of sum_{i=a}^{b} i^alpha
(or sum log i for E[log G]), with a and b exact integers that pass float
range for binary words at k ~ 10^3. `_log_sums` takes these sums for a list
of tables, every table of a request, in one pass: each route runs once over
the blocks of all the tables, the alphas and the sum of logs as the rows of
2-D arrays, and one 2-D log-sum-exp (`_lse_segments`) sums every table;
`log_rank_power_sum` runs it on one range (`_one_block`).

One rule routes every (block, alpha). A block from rank a takes the
midpoint Euler-Maclaurin expansion (the integral over [a - 1/2, b + 1/2]
and the terms c_k (f^(2k-1)(X) - f^(2k-1)(Y)), c_k = B_2k(1/2) / (2k)!)
of the least order M <= _M_MAX = 8 whose remainder bound at a is at most
_EM_TOL = 1e-16 of the sum. For f(x) = x^alpha, Y = a - 1/2, that bound is

    2 |B_{2M+2}| / (2M+2)! * |alpha (alpha-1) .. (alpha-2M-1)| / Y^(2M+2)
        * exp(|alpha| / (2a - 1)),

and for log x, 2 |B_{2M+2}| / ((2M+2) Y^(2M+2) log Y): the remainder is
an integral of f^(2M+2) against a periodic Bernoulli function of at most
2 |B_{2M+2}| / (2M+2)!, the bound Johansson states for the Hurwitz zeta
function (Numer. Algorithms 69, 2015, arXiv:1309.2877), taken relative to
the sum. It is zero for integer 0 <= alpha <= 2M + 1, so alpha = 1 and 2
are exact from rank 1. Order 1 is the one-term corrected midpoint form;
blocks from about rank 2,200-3,700 on take it at the default alphas. The
ranks below _em_min(alpha), the first rank where order 8 meets the
tolerance, are summed directly. Below _ONE_RANK_MAX = 16, which covers the
default alphas (_em_min 1, 8 or 10) and the sum of logs (9), that is one
rule: every block that starts there takes its ranks below 16 as one range
sum S(a, n) from a table built once per tuple of alphas (`_first_ranks`).
A block that reaches rank 17 takes S'(a, 15), that sum less the
expansion's terms k >= 2 at rank 16, where its rest takes one order per
alpha: the rest carries the terms at its other end alone, left out from
about rank 2 * 10^5 on, where they are below 1e-17 of its sum. An alpha
with a higher first rank takes `_direct_route` on the blocks below it: from
each block's top terms where alpha is large against the ranks (at most
about 50 a block; _em_min is about 1.36 |alpha| there), and on every rank
for |alpha| < 1e-2, whose first rank is 30,000: nearer 0 the expansion
takes the sum's O(alpha) part as a difference of O(1) logs. A row's sums
depend on its own alpha alone, and a table's on that table alone. The
kernel takes every alpha alike: its callers know E[G^0] = 1, and
log_rank_power_sum's alpha = 0 is log n. Adjacent blocks of one table with
exactly the same weight are one rank range, so a uniform-on-typical table
is one range. Every log-sum-exp returns its sum correctly rounded, as
math.fsum does: by math.fsum over the terms that can move the rounding
(`_pruned_sum`), else by `_exact_sum`, a guarded numpy cascade on long
inputs.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, groupby

import numpy as np

from .errors import DistributionError

# The Euler-Maclaurin route. A block from rank a sums by the midpoint
# expansion of the least order M <= _M_MAX whose remainder bound at a is at
# most _EM_TOL of the sum; ranks below the first rank where _M_MAX meets it,
# _em_min(alpha), are summed directly. Nearer 0 than _SMALL_ALPHA the form
# takes the sum's O(alpha) part as a difference of O(1) logs, so on short
# ranges its relative error on the log grows like 1/alpha: those alphas sum
# ranks below _SMALL_ALPHA_MIN = 30,000 directly. A one-rank
# block, whose log is that O(alpha) part alone (1.6e-6 relative off at
# alpha = 4.3e-71 and a = 30,000, a negative log at a = 10^6), is alpha log a
# on this route.
_M_MAX = 8
_EM_TOL = 1e-16
_SMALL_ALPHA = 1e-2
_SMALL_ALPHA_MIN = 30000
# Every block takes its ranks below this as one range sum from a table built
# per tuple of alphas (_low_sums): rows whose first Euler-Maclaurin rank is at
# most this take the expansion from it on, and rows with a higher one the
# direct route up to it.
_ONE_RANK_MAX = 16

_LOG2 = math.log(2.0)
_LOG24 = math.log(24.0)

# Ints longer than this many bits are past float range, or near enough to
# its top that a - 1/2 or a ratio would not stay finite: their logs are
# taken from their top bits.
_FLOAT_BITS = 1020

# A range whose length and start are further apart than this factor has a
# ratio outside the normal float range (or close enough to its bottom to
# lose precision as a subnormal).
_FAR_RATIO = 2.0**1000

# Sums of at least this many terms take _exact_sum's numpy cascade, shorter
# ones math.fsum, which is the cheaper of the two below about 1,000 terms.
_CASCADE_MIN = 1000

# The Euler-Maclaurin route takes its alphas in chunks of rows of at most this
# many cells (or one row): more rows per numpy call stop paying once the
# temporaries leave the cache.
_ROW_CELLS = 1 << 12

# A log-sum-exp row's terms below this (its largest is 1) are summed one by
# one only when they can move the rounding of the rest (_pruned_sum).
_PRUNE = 2.0**-30

_LOG_TOL = math.log(_EM_TOL)
# B_2, B_4, .., B_18
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
              Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798))
# the midpoint form's coefficients c_k = B_2k(1/2) / (2k)! = -(1 - 2^(1-2k)) B_2k / (2k)!
_MID = [-(1 - Fraction(2, 4**k)) * _BERNOULLI[k - 1] / math.factorial(2 * k)
        for k in range(1, _M_MAX + 1)]
# per order M = 1 .. _M_MAX: the log of the remainder bound's constant 2|B_{2M+2}| / (2M+2)!,
# times (2M+1)! for the sum of logs; and the bound's power of 1/Y, as a leading axis
_LOG_REM = np.array([math.log(2 * abs(_BERNOULLI[m]) / math.factorial(2 * m + 2))
                     for m in range(1, _M_MAX + 1)])
_P = (2.0 * np.arange(1, _M_MAX + 1) + 2.0).reshape(-1, 1, 1)
# per term k = 2 .. _M_MAX as a leading axis: -2 (k - 1), log |c_k| and its sign
_J2 = -2.0 * np.arange(1.0, _M_MAX).reshape(-1, 1, 1)
_LOG_MID_HIGH = np.array([math.log(abs(c)) for c in _MID[1:]]).reshape(-1, 1)
_MID_SIGN_HIGH = np.array([math.copysign(1.0, c) for c in _MID[1:]]).reshape(-1, 1)
# i = 1 .. 2 _M_MAX + 1: the factors alpha - i of the derivatives' constants
_I = np.arange(1.0, 2 * _M_MAX + 2)
# the sum of logs' bound constants: _LOG_REM times (2M + 1)!
_LOG_REM_LOGS = [c + math.log(math.factorial(2 * m + 1))
                 for m, c in enumerate(_LOG_REM.tolist(), 1)]
# log i for the ranks i = 1 .. _ONE_RANK_MAX - 1, and the cells [k, j] with j < k
# of a square of them
_LOG_RANK = np.array([math.log(i) for i in range(1, _ONE_RANK_MAX)])
_BELOW = np.tri(_ONE_RANK_MAX - 1, k=-1, dtype=bool)


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum of a float64 array, bit for bit, in numpy time on long arrays.

    A pairwise TwoSum cascade (Ogita, Rump & Oishi, "Accurate sum and dot
    product", SIAM J. Sci. Comput. 26(6), 2005) turns the n terms into a
    float hi and n - 1 error terms e with hi + sum(e) the exact sum: each
    level is error-free. r = fl(hi + fl(sum e)) differs from it by the
    TwoSum remainder t of that last addition plus the error of fl(sum e),
    at most gamma_m sum|e| in any order of summation. When |t| plus that
    bound is strictly inside half the gap from r to either float neighbour,
    r is the correctly rounded sum, and so math.fsum's result. Otherwise
    (an exact tie, a non-finite term) and below _CASCADE_MIN terms,
    math.fsum itself runs.
    """
    if x.size < _CASCADE_MIN:
        return math.fsum(x.tolist())
    with np.errstate(all="ignore"):
        n, k = x.size, 0
        w = x.copy()  # level by level in place: fresh temporaries cost more than the flops
        e = np.empty(n - 1)  # every level's error terms
        s_buf, y_buf = np.empty(n // 2), np.empty(n // 2)
        while n > 1:
            h = n // 2
            a, b, s, y, z = w[:h], w[h : 2 * h], s_buf[:h], y_buf[:h], e[k : k + h]
            np.add(a, b, out=s)
            np.subtract(s, a, out=z)
            np.subtract(s, z, out=y)
            np.subtract(a, y, out=y)
            np.subtract(b, z, out=z)
            np.add(y, z, out=z)  # a + b == s + z exactly
            w[:h] = s
            if n % 2:  # the odd term out moves up a level
                w[h] = w[2 * h]
            n, k = n - h, k + h
        hi, lo = float(w[0]), float(e.sum())
        mag = float(np.abs(e, out=e).sum())
    r = hi + lo
    z = r - hi
    t = (hi - (r - z)) + (lo - z)  # r + t == hi + lo exactly
    # fl(sum e) is off by at most gamma_m sum|e| (m = e.size, u = 2**-53,
    # gamma_m = mu / (1 - mu)); gamma_2m on the computed mag also covers the
    # rounding of mag and of the product, and ulp(0) an underflow of the
    # product. Rounding is monotone, so a computed bound below the float
    # half_gap is below it in exact arithmetic too.
    two_mu = e.size * 2.0**-52
    bound = abs(t) + (two_mu / (1.0 - two_mu) * mag + math.ulp(0.0))
    half_gap = 0.5 * min(math.nextafter(r, math.inf) - r, r - math.nextafter(r, -math.inf))
    if bound < half_gap:  # False when any of them is nan
        return r
    return math.fsum(x.tolist())


def _pruned_sum(head: list[float], rest: float, n: int) -> float | None:
    """math.fsum of a log-sum-exp row from its terms >= _PRUNE and a float sum of the rest, or None.

    The row's largest term is exp(0) = 1, and its other n terms, each in
    [0, _PRUNE), sum to rest in any order of float additions, within e = n
    (2^-52 rest + 2^-1074) of their exact sum. By monotone rounding, equal
    math.fsums of the head with rest - e and with rest + e bracket the whole
    row's correctly rounded sum, which is then that float. Otherwise the
    tail may decide the rounding (a tie such as 1 + 2^-53), and None sends
    the row to _exact_sum; a nan stays in the head, so it does too.
    """
    if not n:
        return math.fsum(head)
    e = n * (rest * 2.0**-52 + 2.0**-1074)
    head.append(rest - e)
    s = math.fsum(head)
    head[-1] = rest + e
    return s if math.fsum(head) == s else None


def _prunes(kept: int, size: int) -> bool:
    """Whether a row of `size` terms, `kept` of them >= _PRUNE, takes _pruned_sum.

    Its two sums over the kept terms must be cheaper than one over the row:
    at most half the row is kept, and fewer than _CASCADE_MIN terms.
    """
    return kept < _CASCADE_MIN and 2 * kept <= size


def _segment_sum(top: float, scale: float, head: list[float] | None, rest: float,
                 x: np.ndarray) -> float:
    """top + scale * log of the sum of one segment's exponentials x.

    head holds x's terms >= _PRUNE where _prunes, else it is None, and rest
    a float sum of the others. The sum is _pruned_sum's, or _exact_sum's
    where that cannot decide it or there is no head. A non-finite top
    (every term -inf, or a +inf or nan among them) is the result.
    """
    if not math.isfinite(top):
        return top
    s = None if head is None else _pruned_sum(head, rest, x.size - len(head))
    if s is None:
        s = _exact_sum(x)
    return top + scale * math.log(s)


def _lse_segments(terms: np.ndarray, scales, sizes: np.ndarray) -> list[list[float]]:
    """Scaled log-sum-exps over column segments of a 2-D array, per row, in one numpy pass.

    The columns of `terms` fall into consecutive segments of `sizes`
    columns, none empty; scales[r][j] is row r's scale s on segment j, by
    which its terms t come already multiplied, so that (1/k) log of a sum
    keeps terms finite whose unscaled values would overflow. Returns, per
    row, one float per segment: s log sum exp(t / s), the sum correctly
    rounded (_segment_sum), from one pass over every segment.
    """
    starts = list(accumulate(sizes[:-1].tolist(), initial=0))
    segments = list(zip(starts, sizes.tolist()))
    with np.errstate(all="ignore"):
        tops = np.maximum.reduceat(terms, starts, axis=1)
        x = terms - np.repeat(tops, sizes, axis=1)
        x /= np.repeat(np.asarray(scales, dtype=np.float64), sizes, axis=1)
        np.exp(x, out=x)
    keep = x < _PRUNE
    np.logical_not(keep, out=keep)  # a nan is kept
    kept = np.add.reduceat(keep, starts, axis=1, dtype=np.intp).tolist()
    pruned = [[_prunes(n, size) for n, (_, size) in zip(row, segments)] for row in kept]
    heads, rests = [], [[0.0] * len(segments)] * len(kept)
    if any(map(any, pruned)):
        rests = np.add.reduceat(np.where(keep, 0.0, x), starts, axis=1).tolist()
        if not all(map(all, pruned)):  # only the heads that _pruned_sum takes
            keep &= np.repeat(pruned, sizes, axis=1)
        heads = x[keep].tolist()
    out, i = [], 0
    for r, (tops_r, scales_r, kept_r, pruned_r, rests_r) in enumerate(
            zip(tops.tolist(), scales, kept, pruned, rests)):
        row = []
        for top, scale, n, prune, rest, (a, size) in zip(
                tops_r, scales_r, kept_r, pruned_r, rests_r, segments):
            head = None
            if prune:
                head, i = heads[i : i + n], i + n
            row.append(_segment_sum(top, scale, head, rest, x[r, a : a + size]))
        out.append(row)
    return out


def _lse(terms) -> float:
    """log sum_i exp(terms_i), correctly rounded: what _lse_segments gives for one segment
    at scale 1, bit for bit, from one row's _segment_sum without the 2-D set-up;
    -inf terms drop out, +inf wins, and no terms sum to -inf."""
    terms = np.asarray(terms, dtype=np.float64)
    if not terms.size:
        return -math.inf
    top = float(terms.max())
    if not math.isfinite(top):  # every term -inf, or a +inf or nan among them
        return top
    x = np.exp(terms - top)
    keep = ~(x < _PRUNE)  # a nan is kept
    if not _prunes(np.count_nonzero(keep), x.size):
        return _segment_sum(top, 1.0, None, 0.0, x)
    return _segment_sum(top, 1.0, x[keep].tolist(), float(x.sum(where=~keep)), x)


def _int_parts(values) -> tuple[np.ndarray, np.ndarray]:
    """A sequence of positive ints as mant * 2**exp: float64 mantissas and int64 exponents.

    An int of at most _FLOAT_BITS bits converts to a correctly rounded float,
    with exponent 0. A longer one takes a mantissa in [0.5, 1] from its top
    64 bits, by bit_length and shift, and its bit length as exponent, so that
    log(mant) + exp log 2 is its log as math.log takes it. All values convert
    in one numpy pass unless one of them overflows or rounds to 2**_FLOAT_BITS
    or more; then each takes its own rule.
    """
    try:
        mant = np.fromiter(values, dtype=np.float64)
        if not (mant >= 2.0**_FLOAT_BITS).any():
            return mant, np.zeros(mant.size, dtype=np.int64)
    except OverflowError:
        pass
    exps = [n if n > _FLOAT_BITS else 0 for n in (v.bit_length() for v in values)]
    mants = [float(v >> (e - 64)) / 2.0**64 if e else float(v) for v, e in zip(values, exps)]
    return np.array(mants, dtype=np.float64), np.array(exps, dtype=np.int64)


def _log_parts(mant: np.ndarray, exp: np.ndarray) -> np.ndarray:
    return np.log(mant) + exp * _LOG2


def _start(log_y: float) -> int:
    """The least rank a with a - 1/2 >= exp(log_y), near enough, as an int however large."""
    if log_y < 700.0:
        return math.ceil(math.exp(log_y) + 0.5)
    k = int(log_y / _LOG2) - 64
    return math.ceil(math.exp(log_y - k * _LOG2)) << k


def _first_rank(log_bound, start: int) -> int:
    """The least rank a >= start with log_bound(a) <= _LOG_TOL, log_bound nonincreasing in a.

    start is at or below it: the search steps up from it by doubling
    steps, then bisects, a few evaluations when start is near it.
    """
    if log_bound(start) <= _LOG_TOL:
        return start
    lo, step = start, 1
    while log_bound(lo + step) > _LOG_TOL:
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_bound(mid) <= _LOG_TOL:
            hi = mid
        else:
            lo = mid
    return hi


def _low_sums(powers):
    """The range sums S(a, n) = sum_{i=a}^{n} i^alpha, 1 <= a <= n < _ONE_RANK_MAX, in one numpy pass.

    Returns lam and rho as one array [2, row, a - 1, n - 1], one row per
    power and a last row for the sum of logs, and n - 1 = _ONE_RANK_MAX - 1
    a copy of n = 15: log S(a, n) = alpha lam + rho, lam the log of n where
    alpha + 1 > 0, else of a, as _em_route takes its lam, so that rho stays
    in float range for a huge alpha (the terms (i / n)^alpha are at most
    15 for alpha in (-1, 0]); and log sum_{i=a}^{n} log i = rho in the last
    row. rho is the log of a float sum of at most 15 terms, a few ulp off
    (one term is its own log, exactly).
    """
    alpha = np.reshape([*powers, 0.0], (-1, 1, 1))
    up = np.reshape([a + 1.0 > 0.0 for a in powers] + [False], (-1, 1, 1))
    logs = _LOG_RANK
    # [row, k, j]: (i_j / i_k)^alpha for j >= k, the ranks i in the order that
    # runs away from the one of lam (down from n, or up from a), and log i in
    # the last row; cumulative sums from k then give S(a, n) over i_k^alpha
    ranks = np.where(up, logs[::-1], logs)
    x = np.exp(alpha * (ranks - ranks.swapaxes(1, 2)))
    x[-1] = logs
    x[:, _BELOW] = 0.0
    sums = np.cumsum(x, axis=-1)
    out = np.empty((2, len(x), _ONE_RANK_MAX - 1, _ONE_RANK_MAX))
    out[0, ..., :-1] = np.where(up, logs, logs[:, None])
    np.log(np.where(up, sums[:, ::-1, ::-1].swapaxes(1, 2), sums), out=out[1, ..., :-1])
    out[..., -1] = out[..., -2]
    return out


@functools.lru_cache(maxsize=64)
def _first_ranks(powers: tuple[float, ...]):
    """The routing constants of a call's rows: the powers, then the sum of logs.

    Returns (mins, ones, abs_alpha, bound, fall, sign, low_x, sums,
    far_x). mins[r] is power r's first Euler-Maclaurin rank, the least
    where the order-_M_MAX bound meets the tolerance (_SMALL_ALPHA_MIN for
    |alpha| < _SMALL_ALPHA); ones is a rank from which every row takes
    order 1. The arrays have one column per row: |alpha| (0 for the sum of
    logs); bound[M - 1], the log of the order-M bound's constant over the
    tolerance; and fall[k - 2] and sign[k - 2], the log and sign of c_k
    times the running product of alpha - i over i = 1 .. 2k - 2 (of i for
    the sum of logs), k = 2 .. _M_MAX.

    The rest serve the ranks below _ONE_RANK_MAX, which every block that
    starts there takes from this table. sums holds their range sums S(a, n)
    as _low_sums' lam and rho, sums[0] and sums[1], at [row, 16 (a - 1) + n
    - 1], and at n = _ONE_RANK_MAX the sums S'(a, 15): S(a, 15) less the
    expansion's terms k = 2 .. M of the order M of the rank _ONE_RANK_MAX
    at Y = _ONE_RANK_MAX - 1/2 (what _em_orders gives there; 0 on the rows
    that sum the ranks from 16 directly). A block that reaches rank 17
    takes S' below 16, and its rest from 16 carries the first term at Y
    alone and the terms k <= M at X: low_x[r, k - 2] is that product where
    k <= M, else 0. From X >= far_x on those at X add up to less than
    _EM_TOL / 16 of the rest's sum, which is at least X^alpha / 1.5 (its
    last term for alpha >= 0, its first for alpha < 0) or log 16 for the
    sum of logs. All depend on the alphas alone, so a process computes them
    once per tuple of alphas, read-only.

    For f(x) = x^alpha the order-M bound at rank a is exp(c_M + |alpha| /
    (2a - 1)) / (a - 1/2)^(2M+2) of the sum, c_M = log(2 |B_{2M+2}| /
    (2M+2)!) + log |alpha (alpha-1) .. (alpha-2M-1)|: -inf where the
    product is 0 (integer 0 <= alpha <= 2M + 1, where the expansion of
    order M is exact). It falls with a. Without the factor exp(|alpha| /
    (2a - 1)) it would meet the tolerance at a lower bound of the rank,
    where the search for the first rank of order _M_MAX starts; the factor
    taken at the lower bound of order 1 gives a rank where order 1 meets
    it, in closed form. The sum of logs' bound is _log_bound's.
    """
    alpha = np.array([*powers, 1.0]).reshape(-1, 1)  # the sum of logs: no factor alpha
    diff = alpha - _I
    diff[-1] = _I  # the sum of logs: its running products are the factorials
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(diff)).cumsum(axis=1)
        bound = logs[:, 2::2] + np.log(np.abs(alpha)) + _LOG_REM
    fall = logs[:, 1 : 2 * _M_MAX - 2 : 2].T + _LOG_MID_HIGH
    sign = np.sign(diff).cumprod(axis=1)[:, 1 : 2 * _M_MAX - 2 : 2].T * _MID_SIGN_HIGH
    mins, ones, p = [], _LOG_ONE_RANK, 2 * _M_MAX + 2
    for a, (c1, *_, cm) in zip(powers, bound.tolist()):
        rank = 1  # an exact expansion
        if c1 > -math.inf:  # order 1 is not exact (order _M_MAX may be)
            log_alpha = math.log(abs(a))
            lower = _start((c1 - _LOG_TOL) / 4)
            spread = math.exp(log_alpha - math.log(2 * lower - 1))
            ones = max(ones, _start((c1 + spread - _LOG_TOL) / 4))
        if cm > -math.inf:
            rank = _first_rank(lambda r: cm + math.exp(log_alpha - math.log(2 * r - 1))
                               - p * (math.log(2 * r - 1) - _LOG2), _start((cm - _LOG_TOL) / p))
        mins.append(_SMALL_ALPHA_MIN if abs(a) < _SMALL_ALPHA else rank)
    arrays = np.abs(alpha), (bound - _LOG_TOL).T[..., None], fall[..., None], sign[..., None]
    arrays[0][-1] = 0.0
    # the rank _ONE_RANK_MAX: the terms of its order, masked as _em_orders does
    log_y = math.log(_ONE_RANK_MAX - 0.5)
    h = arrays[0] * math.exp(-_LOG2 - log_y)
    h[-1] = -math.log(log_y)
    missed = (arrays[1] + h > _P * log_y)[:-1, :, 0]
    missed[:, [m > _ONE_RANK_MAX for m in mins] + [False]] = False
    low_x = (sign * np.exp(np.where(missed, fall, -math.inf))).T
    # np.einsum, not BLAS, whose buffers would cost the process memory
    low_y = np.einsum("rk,ks->rs", low_x, np.exp(_J2[:, :, 0] * log_y))
    # from far_x on each term of X's, f'(X) c X^-(2k-2), is at most
    # 1.5 max(|alpha|, 1) |c| X^-(2k-1) of the sum, below _EM_TOL / (16 (_M_MAX - 1))
    top = (np.abs(low_x) * np.maximum(arrays[0], 1.0)).max(axis=0).tolist()
    far_x = max((math.exp((math.log(24 * (_M_MAX - 1) * c) - _LOG_TOL) / (2 * k + 1))
                 for k, c in enumerate(top, 1) if c), default=0.0)
    # S' = S(a, 15) less f'(Y) low_y, f'(Y) = alpha Y^(alpha - 1) or 1/Y
    y = _ONE_RANK_MAX - 0.5
    slope = [a * y ** (a - 1) if h else 0.0 for a, h in zip(powers, low_y[:-1, 0].tolist())]
    corr = np.reshape([*slope, 1 / y], (-1, 1)) * low_y
    with np.errstate(all="ignore"):
        sums = _low_sums(powers)
        lam, rho = sums[..., -1]  # S(a, 15), to become S'
        log_s = np.reshape([*powers, 0.0], (-1, 1)) * lam + rho
        rho += np.log1p(-corr * np.exp(-log_s), where=corr != 0.0, out=np.zeros_like(log_s))
    sums = sums.reshape(2, len(lam), -1)
    for x in (*arrays, low_x, sums):
        x.flags.writeable = False
    return tuple(mins), ones, *arrays, low_x, sums, math.ceil(far_x + 0.5)


def _log_bound(c: float, p: int):
    """The log of the sum of logs' bound as a function of the rank: log constant c, power p of 1/Y.

    The order-M bound at rank a is 2 |B_{2M+2}| (2M+1)! / (2M+2)! /
    ((a - 1/2)^(2M+2) log(a - 1/2)) of the sum: the remainder's f^(2M+2) =
    -(2M+1)! / x^(2M+2) integrates to at most (2M+1)! n / Y^(2M+2) over n
    ranks, and the sum is at least n log a.
    """
    return lambda a: math.inf if a < 2 else c - math.log(math.log(a - 0.5)) - p * math.log(a - 0.5)


# the sum of logs' first rank of order 1: 2,160
_LOG_ONE_RANK = _first_rank(_log_bound(_LOG_REM_LOGS[0], 4), 1)


def _em_min(alpha: float) -> int:
    """The first rank from which sums of i^alpha take the Euler-Maclaurin route (_first_ranks).

    1 where the expansion is exact (integer 0 <= alpha <= 2 _M_MAX + 1),
    about 10 at the default alphas -0.5 and 0.5, about 1.36 |alpha| for
    large |alpha|, and _SMALL_ALPHA_MIN = 30,000 for |alpha| < _SMALL_ALPHA.
    A function of alpha alone.
    """
    return _first_ranks((float(alpha),))[0][0]


def _em_orders(ranks, powers, log_yx):
    """The expansion's terms of order 2 .. M over columns of Y and X (log_yx their logs), per row.

    Rows are the powers, then the sum of logs; ranks are _first_ranks'. A
    (row, column) takes the least order M whose bound meets the tolerance
    at the column's first rank a = Y + 1/2. The bound falls with M wherever
    a row takes this route (there 2 pi Y exceeds |alpha| + 2M + 3), so term
    k is taken exactly where order k - 1 misses the tolerance. Term k is
    c_k f^(2k-1) at either end: for f(x) = x^alpha, alpha x^(alpha-1) times
    c_k prod_{i=1}^{2k-2} (alpha - i) / x; for log x, x^(-1) times c_k
    (2k-2)! / x^(2k-2). Returns, per end Y and X, the sum over k = 2 .. M of
    c_k times that product, 0 where M = 1.
    """
    abs_alpha, bound, fall, sign = ranks[2:6]
    log_y = log_yx[0]
    h = abs_alpha * np.exp(-_LOG2 - log_y)  # |alpha| / (2a - 1) = |alpha| / 2Y
    h[-1] = -np.log(log_y)  # the sum of logs' bound divides by log Y
    missed = bound + h > _P * log_y  # bound holds log(bound constant / tolerance)
    terms = sign * np.exp(fall + _J2 * log_yx[:, None, None])
    return np.einsum("krs,ekrs->ers", missed[:-1], terms)


def _direct_route(a, n, alpha):
    """Direct sums of i^alpha[j] over the n[j] ranks from a[j] (ints), from their largest terms.

    The terms fall from the last rank b (alpha > 0) or the first (else),
    each at most exp(-|alpha| j / b) of the largest, j ranks from it, so the
    terms past the J largest add at most exp(-|alpha| J / b) (1 + b /
    |alpha|) of the sum: each sum takes the J largest that make that at
    most _EM_TOL, its top terms where alpha is large against the ranks,
    else every rank. A term is exp(alpha log1p(-+j / r)) of the largest, r
    its rank. Returns (lam, rho), log sum = alpha lam + rho, lam = log r.
    """
    (a_m, a_e), (b_m, b_e), (n_m, n_e) = (
        _int_parts(v) for v in (a, [x + k - 1 for x, k in zip(a, n)], n))
    top = alpha > 0.0
    r_m, r_e = np.where(top, b_m, a_m), np.where(top, b_e, a_e)
    q = np.ldexp(b_m / np.abs(alpha), b_e)  # b / |alpha|
    cnt = np.minimum(np.ldexp(n_m, n_e), np.ceil(q * (np.log1p(q) - _LOG_TOL))).astype(np.int64)
    off = np.cumsum(cnt) - cnt
    u = np.arange(int(off[-1] + cnt[-1]), dtype=np.float64) - np.repeat(off, cnt)  # j
    u = np.ldexp(u / np.repeat(r_m, cnt), -np.repeat(r_e, cnt))
    np.negative(u, out=u, where=np.repeat(top, cnt))
    d = np.log1p(u)
    d *= np.repeat(alpha, cnt)
    return _log_parts(r_m, r_e), np.log(np.add.reduceat(np.exp(d, out=d), off))


def _em_route(a_parts, n_parts, powers, ranks, top, sub):
    """Midpoint Euler-Maclaurin sums over blocks of n ranks from a, of the order each block takes.

    With Y = a - 1/2 and X = a + n - 1/2, sum_{i=a}^{a+n-1} i^alpha is
    integral_Y^X x^alpha dx times 1 - (alpha/24)(X^(alpha-1) - Y^(alpha-1)) / integral
    (a^alpha itself when n = 1), and sum log i is integral_Y^X log x dx + (1/24)(1/Y - 1/X)
    (log a itself when n = 1), all in the log domain. Returns
    (lam, rho) with log sum = alpha lam + rho, rho one row per alpha and
    one column per block, lam the same or, when every alpha + 1 has one
    sign, one row for all of them; and the log sum of logs per block. That
    is the form of order 1. The blocks `top`, the rests from rank
    _ONE_RANK_MAX of blocks whose ranks below it take S' (_first_ranks),
    and `sub`, blocks that start between it and a rank from which every row
    takes order 1, add the terms k = 2 .. M of their order M where it is
    above 1: `top` at X alone by _first_ranks' constants (ranks), S'
    carries those at Y; `sub` at both ends by _em_orders.
    """
    (a_m, a_e), (n_m, n_e) = a_parts, n_parts
    # a one-rank block is a^alpha, taken as alpha log a: the form's O(alpha)
    # part is a difference of O(1) logs, all lost once alpha + 1 rounds to 1
    one = (n_m == 1.0) & (n_e == 0)
    log_a = _log_parts(a_m, a_e)
    y_m = a_m - np.ldexp(0.5, -a_e)
    log_y = _log_parts(y_m, a_e)
    log_n = _log_parts(n_m, n_e)
    ratio = np.ldexp(n_m / y_m, n_e - a_e)  # n / Y
    # a range negligible beside its start sums to n Y^alpha to float precision;
    # beside a huge one, log1p(n/Y) is log(n/Y)
    tiny = ratio < 1.0 / _FAR_RATIO
    log_ratio = log_n - log_y
    t = np.where(ratio < _FAR_RATIO, np.log1p(ratio), log_ratio)  # log(X/Y)
    log_x = log_y + t
    # with s = alpha + 1, the integral is X^s (1 - (Y/X)^s) / s from the top end X
    # when s > 0 (up), Y^s (1 - (X/Y)^s) / -s from Y when s < 0: lam + rest with
    # lam = log X or log Y and rest = log t + log q, q = (1 - exp(-|s| t)) / (|s| t),
    # which is 1 at s = 0, where the integral is Y^0 log(X/Y). So rho is log Y +
    # log t (plus t when lam = log X) plus log q. For a range short against its
    # start (r = n/Y < 1) log Y and log t cancel, so there log Y + log t is taken
    # as log n + log(t/r). Whatever alpha, a tiny range's (lam, rho) is (log Y,
    # log n) and a one-rank block's (log a, 0).
    fixed = tiny | one  # their rows are overwritten, whatever their order
    short = ratio < 1.0
    log_t = np.log(np.where(short, t / ratio, t))  # log(t/r) where short, else log t
    log_yt = np.where(short, log_n, log_y) + log_t
    gain = None
    if top.size or sub.size:  # the terms k = 2 .. M: a gain 1 - 24 high(x) on f'(x) / 24
        high = np.zeros((2, len(powers) + 1, top.size + sub.size))
        if top.size:  # one order per row
            x_terms = np.exp(_J2[:, :, 0] * log_x[top])
            high[1, :, : top.size] = np.einsum("rk,ks->rs", ranks[6], x_terms)
        if sub.size:
            high[:, :, top.size :] = _em_orders(ranks, powers, np.stack((log_y[sub], log_x[sub])))
        sub = np.concatenate((top, sub))
        gain = 1.0 - 24.0 * high[:, :-1]
    alpha = np.array(powers, dtype=np.float64).reshape(-1, 1)
    neg_s = -np.abs(alpha + 1.0)
    fixed_rho = np.where(one, 0.0, log_n)
    lams = {}  # the lam row of each sign of s
    rho_out = np.empty((len(powers), t.size))
    # the alphas in runs of one sign of s, each in chunks of rows that keep
    # every temporary small
    chunk = max(1, _ROW_CELLS // t.size)
    i = 0
    for up, run in groupby(powers, key=lambda a: a + 1.0 > 0.0):
        run = list(run)
        end = i + len(run)
        lam = log_x if up else log_y
        base = log_yt + t if up else log_yt  # lam + log t
        lam_base = -(lam + base)
        lams.setdefault(up, np.where(one, log_a, np.where(tiny, log_y, lam)))
        for c in range(i, end, chunk):
            rows = slice(c, min(c + chunk, end))
            st = neg_s[rows] * t
            log_q = np.log(np.expm1(st) / st)
            if -1.0 in powers[rows]:
                log_q[powers[rows].index(-1.0)] = 0.0
            far = lam_base - log_q  # log of lam's end to the power alpha - 1, over the integral
            step = (alpha[rows] - 1.0) * t
            e_y, e_x = (far - step, far) if up else (far, far + step)
            # the first midpoint correction, -(1/24)(f'(X) - f'(Y)), as a ratio to the
            # integral: O(alpha^2/a^2); where it is not small, alpha is out of the
            # closed form's reach and the integral alone stands
            e_y, e_x = np.exp(e_y), np.exp(e_x)
            if gain is not None:
                e_y[:, sub] *= gain[0, rows]
                e_x[:, sub] *= gain[1, rows]
            corr = (alpha[rows] / 24.0) * (e_y - e_x)
            rho = np.add(base, log_q, out=rho_out[rows])
            rho += np.log1p(np.where(np.abs(corr) < 0.5, corr, 0.0))
            np.copyto(rho, fixed_rho, where=fixed)
        i = end
    # when s has one sign, lam is one row that broadcasts over the alphas
    if len(lams) == 2:
        lam_out = np.where(alpha + 1.0 > 0.0, lams[True], lams[False])
    else:
        lam_out = next(iter(lams.values()), log_x)
    sums = (lam_out, rho_out)
    # integral_Y^X log x dx = n log Y + Y phi(n/Y), phi(r) = (1+r) log1p(r) - r;
    # phi(r) = r^2/2 for tiny r and r (log r - 1) for huge r, to float precision;
    # those two forms only where they are needed
    phi = np.log((1.0 + ratio) * t - ratio)  # t is log1p(ratio) below _FAR_RATIO
    near = ratio < 1e-6
    if near.any():
        r = ratio[near]
        phi[near] = np.where(tiny[near], 2.0 * log_ratio[near] - _LOG2,
                             2.0 * np.log(r) - _LOG2 + np.log1p(r * (r / 6.0 - 1.0 / 3.0)))
    far = ratio >= _FAR_RATIO
    if far.any():
        phi[far] = log_ratio[far] + np.log(log_ratio[far] - 1.0)
    # plus the first midpoint correction (1/24)(1/Y - 1/X) = n / (24 X Y)
    integral = np.logaddexp(log_n + np.log(log_y), log_y + phi)
    logs = np.logaddexp(integral, log_n - _LOG24 - log_x - log_y)
    if gain is not None:  # the terms k = 2 .. M: X^-1 high(X) - Y^-1 high(Y), over the sum
        ends = np.exp(-np.stack((log_y[sub], log_x[sub])) - logs[sub]) * high[:, -1]
        logs[sub] += np.log1p(ends[1] - ends[0])
    np.log(log_a, out=logs, where=one)  # one rank a: log log a
    return sums, logs


def _terms(tables, powers):
    """Every table's terms as one 2-D array: one row per power, a last row for the sum of logs.

    Every block that starts below _ONE_RANK_MAX takes its ranks below it as
    one column from _first_ranks' range sums: S(a, min(b, 15)), or S' when
    it reaches rank 17. A block that straddles 16 keeps its rest from there
    as one more block of its weight, which carries its expansion's terms at
    X alone after S', and is summed exactly after S when it is rank 16
    alone (S' there would count the terms at Y twice). From there each
    row takes the Euler-Maclaurin route at each block's least order that
    meets the tolerance, from its first rank (_first_ranks) on. A row whose
    first rank is higher (|alpha| < _SMALL_ALPHA, or |alpha| large against
    the ranks) sums the blocks below it by _direct_route instead, and the
    one that straddles it by _direct_route up to it and a route of its own
    from it on. So every row's sums depend on its alpha alone. The
    Euler-Maclaurin route runs once over the blocks of all the tables, its
    starts converted in one _int_parts pass. Returns the terms (alpha lam +
    w + rho, times the table's scale, and w + log sum log i), their columns
    grouped by table, and each table's number of columns.
    """
    ranks = _first_ranks(tuple(powers))
    low, ones, far_x = _ONE_RANK_MAX, ranks[1], ranks[8]
    starts, small, per_table, tops, sub = [], [], [], [], []
    bottom, spans = [], []  # the columns below low and their cells in the range sums
    for bounds, _, _, log_w, _ in tables:
        n, c0 = log_w.size, len(starts)
        d = bisect_left(bounds, low, hi=n)  # blocks 0 .. d - 1 start below low
        bottom += range(c0, c0 + d)
        spans += [low * (a - 1) + min(b, low) - 2 for a, b in zip(bounds, bounds[1 : d + 1])]
        starts += bounds[:d]  # one-rank blocks in the route, their sums replaced
        sizes, weights, c = [1] * d, log_w, c0 + d
        if d and bounds[d] > low:  # block d - 1 straddles low: its rest is one more block
            starts.append(low)
            sizes.append(bounds[d] - low)
            weights = np.concatenate((log_w[:d], log_w[d - 1 :]))
            if bounds[d] > low + 1:  # a rest of two ranks or more: S' below low
                spans[-1] += 1
                if bounds[d] < far_x:
                    tops.append(c)
                c += 1
        starts += bounds[d:n]
        sub += range(c, bisect_left(starts, ones, c))  # orders above 1
        small += sizes
        per_table.append((len(sizes), d, weights, bounds[n]))
    # every block's size parts, the cut ones' from one _int_parts pass
    s_m, s_e = _int_parts(small) if small else (np.empty(0), np.empty(0, dtype=np.int64))
    m_parts, e_parts, cols, i = [], [], [], 0
    for (_, n_m, n_e, _, _), (c, d, _, _) in zip(tables, per_table):
        m_parts += [s_m[i : i + c], n_m[d:]]
        e_parts += [s_e[i : i + c], n_e[d:]]
        cols.append(c + n_m.size - d)
        i += c
    sizes = np.concatenate(m_parts), np.concatenate(e_parts)
    (lam, rho), logs = _em_route(_int_parts(starts), sizes, powers, ranks,
                                 *(np.array(c, dtype=np.intp) for c in (tops, sub)))
    if bottom:  # the range sums below low: their lam, like the route's, goes by the
        # sign of alpha + 1, so it is one row where the route's is
        lam = np.atleast_2d(lam)
        sums = ranks[7].take(spans, axis=2)
        lam[:, bottom] = sums[0, : len(lam)]
        rho[:, bottom] = sums[1, :-1]
        logs[bottom] = sums[1, -1]
    far = [(r, alpha, m) for r, (alpha, m) in enumerate(zip(powers, ranks[0])) if m > low]
    if far:
        lam = np.array(np.broadcast_to(lam, rho.shape))
        first = list(accumulate(cols, initial=0))
        stops = [*starts[1:], 0]  # each block's end, past its last rank
        for c1, (*_, end) in zip(first[1:], per_table):
            stops[c1 - 1] = end
    for r, alpha, m in far:  # the blocks from low to the row's first rank
        at, a, k, tails = [], [], [], []
        for c0, c1 in zip(first, first[1:]):
            for c in range(bisect_left(starts, low, c0, c1), bisect_left(starts, m, c0, c1)):
                at.append(c)
                a.append(starts[c])
                k.append(min(stops[c], m) - starts[c])
                if stops[c] > m:
                    tails.append((len(at) - 1, stops[c] - m))
        if not at:
            continue
        d_lam, d_rho = _direct_route(a, k, np.full(len(a), alpha))
        if tails:  # the straddling blocks' rest, from m on, by Euler-Maclaurin
            j, n = zip(*tails)
            (t_lam, t_rho), _ = _em_route(_int_parts([m] * len(n)), _int_parts(n), [alpha],
                                          _first_ranks((alpha,)), np.empty(0, dtype=np.intp),
                                          np.arange(len(n)))
            j = list(j)
            head = alpha * d_lam[j] + d_rho[j]
            d_lam[j] = np.broadcast_to(t_lam, t_rho.shape)[0]
            d_rho[j] = np.logaddexp(head, alpha * d_lam[j] + t_rho[0]) - alpha * d_lam[j]
        lam[r, at], rho[r, at] = d_lam, d_rho
    w = np.concatenate([weights for _, _, weights, _ in per_table])
    scale = np.repeat([s for *_, s in tables], cols)
    alpha = np.array(powers, dtype=np.float64).reshape(-1, 1)
    terms = np.empty((len(powers) + 1, w.size))
    rows = terms[:-1]
    np.add(w, rho, out=rows)
    rows *= scale
    rows += (alpha * scale) * lam  # (alpha scale) lam + scale (w + rho)
    np.add(w, logs, out=terms[-1])
    return terms, np.array(cols)


def _check_alphas(alphas) -> None:
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise DistributionError(f"alpha must be finite, got {alpha}")


def _log_sums(tables, alphas):
    """The rank-sum kernel: one pass over the blocks of a list of tables.

    _log_sums(tables, alphas) takes each table as (bounds, size_parts,
    log_weights, scale). Its block j holds ranks bounds[j] .. bounds[j + 1] - 1
    (exact, strictly ascending ints) at log weight log_weights[j];
    size_parts are the sizes as _int_parts gives them, taken once by the
    caller. The weights descend, so the blocks of weight 0, which are
    skipped, are the last ones; adjacent blocks of exactly equal weight are
    summed as one range, a rule on each table alone. Returns, per table,
    ([scale * log sum_j w_j sum_{i in j} i^alpha for each alpha],
    log sum_j w_j sum_{i in j} log i).

    One rule routes every (block, alpha) (_terms): each block's ranks below
    _ONE_RANK_MAX = 16 by one range sum held per tuple of alphas, and each
    block from there by the midpoint Euler-Maclaurin expansion of the least
    order M <= 8 whose remainder bound at its first rank is at most _EM_TOL
    = 1e-16 of the sum (the module docstring states the bound), or directly
    where no order meets it (_direct_route: the top terms for large alpha,
    every rank for |alpha| < 1e-2 below rank 30,000). So each block's sum
    is within 1e-16 of the exact one before rounding, and so is each
    table's; rounding adds a few 1e-15 of the sum, and a few ulp of each
    log a term is made of. Each route runs once over the blocks of all the
    tables, the alphas and the sum of logs as the rows of 2-D arrays, and
    one _lse_segments call sums every table, so a table's results are, bit
    for bit, those it gets alone, and an alpha's those it gets alone. alpha
    = 0 takes no rule of its own: callers know E[G^0]. The terms stay
    scaled, so a huge alpha overflows only where scale * log of the sum
    would. A non-finite alpha raises DistributionError. The log of the sum
    of rounded logs times float weights is off by up to 32 ulp on a uniform
    table of N words: about 2 ulp of log N.
    """
    _check_alphas(alphas)
    out = [([-math.inf for _ in alphas], -math.inf) for _ in tables]
    live, at = [], []
    for i, (bounds, (n_m, n_e), log_w, s) in enumerate(tables):
        log_w = np.asarray(log_w, dtype=np.float64)
        n = int(np.count_nonzero(log_w > -math.inf))  # the live blocks are the first n
        if n:
            same = log_w[1:n] == log_w[: n - 1]
            if np.count_nonzero(same):  # adjacent blocks of one weight are one rank range
                firsts = [0, *(np.flatnonzero(~same) + 1).tolist()]
                bounds = (*map(bounds.__getitem__, firsts), bounds[n])
                n_m, n_e = _int_parts(list(map(int.__sub__, bounds[1:], bounds)))
                log_w, n = log_w[firsts], len(firsts)
            live.append((bounds, n_m[:n], n_e[:n], log_w[:n], s))
            at.append(i)
    if not live:
        return out
    powers = list(dict.fromkeys(alphas))
    scales = [s for *_, s in live]
    with np.errstate(all="ignore"):
        terms, cols = _terms(live, powers)
        rows = _lse_segments(terms, [scales] * len(powers) + [[1.0] * len(live)], cols)
    sums = dict(zip(powers, rows))
    for j, i in enumerate(at):
        out[i] = ([sums[a][j] for a in alphas], rows[-1][j])
    return out


def _one_block(a: int, b: int):
    """The ranks a .. b, validated, as _log_sums' bounds, size_parts and weights."""
    a, b = int(a), int(b)
    if a < 1 or b < a:
        raise DistributionError(f"need 1 <= a <= b, got a={a}, b={b}")
    n = b - a + 1
    return (a, b + 1), _int_parts((n,)), [0.0]


def log_rank_power_sum(a: int, b: int, alpha: float) -> float:
    """log of sum_{i=a}^{b} i^alpha for exact (arbitrarily large) integers a <= b.

    The table kernel (_log_sums) run on one block; alpha = 0 is log n from
    the block's own size parts. The ranks below 16 by one range sum held per
    alpha, the ranks from there by the midpoint Euler-Maclaurin expansion
    of the least order M <= 8 whose remainder bound (the module
    docstring's) is at most 1e-16 of the sum at the range's first rank, and
    directly below the first rank where order 8 meets it (_em_min(alpha):
    10 or less at the default alphas, about 1.36 |alpha| for large alpha,
    whose ranges then take their top terms only). The result is off by at
    most 1e-16 of the sum before rounding; rounding adds a few 1e-15 of the
    sum and a few ulp of each of the two logs the result is made of, alpha
    lam (at most |alpha| log b, the log of the largest term) and rho
    (tests/test_ranksums.py checks that bound against mpmath over alpha in
    (-1, 1e5] and ranges past 2^1020). Near alpha = 0 the expansion cancels
    on short ranges, so there its relative error on the log grows like
    1/alpha, and |alpha| < 1e-2 keeps the direct route below 30,000 and
    that error from there on; one rank a is alpha log a on every route.
    When alpha log i leaves float range the result is its limit, +inf or
    -inf; a non-finite alpha raises DistributionError.
    """
    (bounds, parts, log_w), alpha = _one_block(a, b), float(alpha)
    if alpha == 0.0:
        return float(_log_parts(*parts)[0])
    return _log_sums([(bounds, parts, log_w, 1.0)], (alpha,))[0][0][0]
