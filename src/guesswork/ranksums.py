"""Exact rank sums over the blocks of guess tables.

A guess table puts each type class on a range of consecutive ranks, so
every finite-k moment is a weighted sum over blocks of sum_{i=a}^{b} i^alpha
(or sum log i for E[log G]), with a and b exact integers that pass float
range for binary words at k ~ 10^3. `_log_sums` takes these sums for a list
of tables, every table of a request, in one kernel pass per request: per
threshold, each route runs once over the blocks of all the tables, the
alphas as the rows of 2-D arrays, and one 2-D log-sum-exp
(`_lse_segments`) sums every table; `log_rank_power_sum` runs it on one
range (`_one_block`). Each alpha is routed by its own
threshold, `_em_min(alpha)`: ranks below it are summed directly, ranks from
it on by the corrected midpoint Euler-Maclaurin closed form, and the one
range that straddles it is split there. The threshold is _EM_LOW = 4,096
where the first term the closed form neglects is at most 1e-16 of the sum
there and alpha is not near 0 (about 1e-2 <= |alpha|, -0.98 <= alpha <=
3.98, the default alphas among them), and _EM_MIN = 30,000 for every other
alpha; the sum of logs takes _EM_LOW. The kernel takes every alpha alike:
its callers know E[G^0] = 1, and log_rank_power_sum's alpha = 0 is log n.
Adjacent blocks of one table with exactly the same weight are one rank
range, so a uniform-on-typical table is one range. A range that starts at
rank 1 and reaches the threshold (a table's modal typical class, a whole
uniform range, log_rank_power_sum from rank 1) has ranks 1 .. threshold - 1
as its direct block, and `_head_sums` sums that block once per process per
(threshold, alphas), keeping at most _HEAD_KEYS of them. The results stay
bit for bit those of the pass, as a block's direct sums do not depend on
the other blocks or rows beside it: log and exp are elementwise and
reduceat sums each block alone. Every log-sum-exp
returns its sum correctly rounded, as math.fsum does: by math.fsum over
the terms that can move the rounding (`_pruned_sum`), else by
`_exact_sum`, a guarded numpy cascade on long inputs.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from itertools import accumulate, groupby

import numpy as np

from .errors import DistributionError

# The route thresholds: for each alpha, ranks below _em_min(alpha) are summed
# directly and ranks from it on by the corrected midpoint Euler-Maclaurin
# closed form. A range that straddles the threshold is split there; blocks of
# one table hold disjoint ranks, so at most one does per threshold.
# _EM_MIN is the high tier, taken by every alpha the low tier does not admit.
_EM_MIN = 30000
_EM_LOW = 4096
# The low tier admits alpha where the first term the closed form neglects is
# at most _EM_TOL of the sum at _EM_LOW, and |alpha| is at least _SMALL_ALPHA:
# nearer 0 the form takes the sum's O(alpha) part as a difference of O(1)
# logs, so on short ranges its relative error on the log grows like 1/alpha,
# and that defect stays where it was, from 30,000 on. A one-rank block, whose
# log is that O(alpha) part alone (1.6e-6 relative off at alpha = 4.3e-71 and
# a = 30,000, a negative log at a = 10^6), is alpha log a on this route.
_EM_TOL = 1e-16
_SMALL_ALPHA = 1e-2

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
_PRUNE = 2.0**-80

# At most this many (threshold, alphas) keys keep their direct sums of ranks
# 1 .. threshold - 1 (_head_sums); a key holds two floats per alpha and one more.
_HEAD_KEYS = 256


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


def _pruned_sum(head: list[float], rest: int) -> float | None:
    """math.fsum of a log-sum-exp row from its terms >= _PRUNE alone, or None.

    The row's largest term is exp(0) = 1, and its other `rest` terms are
    each below _PRUNE, so they add less than c = rest * _PRUNE, exactly. By
    monotone rounding, fl(head) == fl(head + c) (both math.fsum) brackets the
    whole row's correctly rounded sum, which is then that float. Otherwise
    the tail may decide the rounding (a tie such as 1 + 2^-53), and None
    sends the row to _exact_sum; a nan stays in the head, so it does too.
    """
    s = math.fsum(head)
    if rest:
        head.append(rest * _PRUNE)
        if math.fsum(head) != s:
            return None
    return s


def _prunes(kept: int, size: int) -> bool:
    """Whether a row of `size` terms, `kept` of them >= _PRUNE, takes _pruned_sum.

    Its two sums over the kept terms must be cheaper than one over the row:
    at most half the row is kept, and fewer than _CASCADE_MIN terms.
    """
    return kept < _CASCADE_MIN and 2 * kept <= size


def _segment_sum(top: float, scale: float, head: list[float] | None, x: np.ndarray) -> float:
    """top + scale * log of the sum of one segment's exponentials x.

    head holds x's terms >= _PRUNE where _prunes, else it is None. The sum
    is _pruned_sum's, or _exact_sum's where that cannot decide it or there
    is no head. A non-finite top (every term -inf, or a +inf or nan among
    them) is the result.
    """
    if not math.isfinite(top):
        return top
    s = None if head is None else _pruned_sum(head, x.size - len(head))
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
    heads = []
    if any(map(any, pruned)):
        if not all(map(all, pruned)):  # only the heads that _pruned_sum takes
            keep &= np.repeat(pruned, sizes, axis=1)
        heads = x[keep].tolist()
    out, i = [], 0
    for r, (tops_r, scales_r, kept_r, pruned_r) in enumerate(
            zip(tops.tolist(), scales, kept, pruned)):
        row = []
        for top, scale, n, prune, (a, size) in zip(tops_r, scales_r, kept_r, pruned_r, segments):
            head = None
            if prune:
                head, i = heads[i : i + n], i + n
            row.append(_segment_sum(top, scale, head, x[r, a : a + size]))
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
    head = x[keep].tolist() if _prunes(np.count_nonzero(keep), x.size) else None
    return _segment_sum(top, 1.0, head, x)


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


def _em_min(alpha: float) -> int:
    """The first rank from which sums of i^alpha take the Euler-Maclaurin form.

    The first term the corrected midpoint form neglects is
    (7/5760)(f'''(X) - f'''(Y)) for f(x) = x^alpha, Y = a - 1/2. f'''' keeps
    one sign on [Y, X], so that term is at most
    (7/5760)|alpha (alpha-1)(alpha-2)(alpha-3)| / Y^4 of the sum. _EM_LOW
    where that is at most _EM_TOL there and |alpha| >= _SMALL_ALPHA (about
    -0.98 <= alpha <= 3.98; the term is zero at alpha = 1, 2), else _EM_MIN.
    A function of alpha alone, so a table and each of its blocks alone take
    the same routes.
    """
    bound = 7.0 / 5760.0 * abs(alpha * (alpha - 1.0) * (alpha - 2.0) * (alpha - 3.0))
    if abs(alpha) >= _SMALL_ALPHA and bound <= _EM_TOL * (_EM_LOW - 0.5) ** 4:
        return _EM_LOW
    return _EM_MIN


def _direct_route(a, cnt, powers):
    """Direct sums over blocks of cnt[j] ranks from a[j] (int64), all below their threshold.

    The ranks are exact floats, summed in one pass over their logs, the
    alphas as rows. Returns (lam, rho), one row per alpha and one column per
    block, with log sum_i i^alpha = alpha lam + rho, lam the log of the
    block's largest term's rank; and log sum_i log i per block.
    """
    off = np.cumsum(cnt) - cnt
    log_i = np.arange(int(off[-1] + cnt[-1]), dtype=np.float64)
    log_i += np.repeat(a - off, cnt)
    np.log(log_i, out=log_i)
    alpha = np.array(powers, dtype=np.float64).reshape(-1, 1)
    lam = np.where(alpha > 0.0, log_i[off + cnt - 1], log_i[off])
    d = log_i - np.repeat(lam, cnt, axis=1)
    d *= alpha
    rho = np.log(np.add.reduceat(np.exp(d, out=d), off, axis=1))
    return (lam, rho), np.log(np.add.reduceat(log_i, off))


@functools.lru_cache(maxsize=_HEAD_KEYS)
def _head_sums(em_min: int, powers: tuple[float, ...]):
    """_direct_route's sums of ranks 1 .. em_min - 1 as one block, read-only, once per process.

    The direct block of every range that starts at rank 1 and reaches
    em_min; _log_sums states why it is bit for bit the pass's own.
    """
    (lam, rho), logs = _direct_route(np.ones(1, dtype=np.int64),
                                     np.full(1, em_min - 1, dtype=np.int64), powers)
    for x in (lam, rho, logs):
        x.flags.writeable = False
    return (lam, rho), logs


def _em_route(a_parts, n_parts, powers):
    """Corrected midpoint Euler-Maclaurin sums over blocks of n ranks from a >= the threshold.

    With Y = a - 1/2 and X = a + n - 1/2, sum_{i=a}^{a+n-1} i^alpha is
    integral_Y^X x^alpha dx times 1 - (alpha/24)(X^(alpha-1) - Y^(alpha-1)) / integral
    (a^alpha itself when n = 1), and sum log i is integral_Y^X log x dx + (1/24)(1/Y - 1/X), all in the log domain. Returns
    (lam, rho) with log sum = alpha lam + rho, rho one row per alpha and
    one column per block, lam the same or, when every alpha + 1 has one
    sign, one row for all of them; and the log sum of logs per block.
    """
    (a_m, a_e), (n_m, n_e) = a_parts, n_parts
    # a one-rank block is a^alpha, taken as alpha log a: the form's O(alpha)
    # part is a difference of O(1) logs, all lost once alpha + 1 rounds to 1
    one = (n_m == 1.0) & (n_e == 0)
    log_a = np.where(one, _log_parts(a_m, a_e), 0.0)
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
    # lam = log X or log Y and rest = log((1 - exp(-|s| t)) / |s|), log |s| by
    # math.log; at s = 0 it is Y^0 log(X/Y). Whatever alpha, a tiny range's
    # (lam, rho) is (log Y, log n) and a one-rank block's (log a, 0).
    alpha = np.array(powers, dtype=np.float64).reshape(-1, 1)
    neg_s = -np.abs(alpha + 1.0)
    log_s = np.reshape([math.log(abs(a + 1.0)) if a != -1.0 else 0.0 for a in powers], (-1, 1))
    fixed = tiny | one
    fixed_rho = np.where(one, 0.0, log_y + log_ratio)
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
        two_lam = -2.0 * lam
        lams.setdefault(up, np.where(one, log_a, np.where(tiny, log_y, lam)))
        for c in range(i, end, chunk):
            rows = slice(c, min(c + chunk, end))
            rest = np.log(-np.expm1(neg_s[rows] * t)) - log_s[rows]
            if -1.0 in powers[rows]:
                rest[powers[rows].index(-1.0)] = np.log(t)
            far = two_lam - rest  # log of lam's end to the power alpha - 1, over the integral
            step = (alpha[rows] - 1.0) * t
            e_y, e_x = (far - step, far) if up else (far, far + step)
            # the first midpoint correction, -(1/24)(f'(X) - f'(Y)), as a ratio to the
            # integral: O(alpha^2/a^2); where it is not small, alpha is out of the
            # closed form's reach and the integral alone stands
            corr = (alpha[rows] / 24.0) * (np.exp(e_y) - np.exp(e_x))
            rho = np.add(lam, rest, out=rho_out[rows])
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
    # phi(r) = r^2/2 for tiny r and r (log r - 1) for huge r, to float precision
    near = np.where(
        ratio < 1e-6,
        2.0 * np.log(ratio) - _LOG2 + np.log1p(ratio * (ratio / 6.0 - 1.0 / 3.0)),
        np.log((1.0 + ratio) * np.log1p(ratio) - ratio),
    )
    far = np.where(tiny, 2.0 * log_ratio - _LOG2, log_ratio + np.log(log_ratio - 1.0))
    phi = np.where(tiny | (ratio >= _FAR_RATIO), far, near)
    # plus the first midpoint correction (1/24)(1/Y - 1/X) = n / (24 X Y)
    integral = np.logaddexp(log_n + np.log(log_y), log_y + phi)
    return sums, np.logaddexp(integral, log_n - _LOG24 - log_x - log_y)


def _join(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _tier(tables, em_min, powers, logs):
    """One threshold's terms over the live blocks of every table, as one 2-D array.

    Each table's ranks below em_min are summed directly and those from it
    on by Euler-Maclaurin; the one block that straddles em_min ends its
    direct head there, its tail from em_min on one more Euler-Maclaurin
    block at that block's weight. A table whose first block starts at rank
    1 and reaches em_min takes that block's direct sums, of ranks
    1 .. em_min - 1, from _head_sums, once per process for these powers.
    Each route runs once, over the blocks of all the tables, the
    Euler-Maclaurin starts converted in one _int_parts pass. Returns the
    terms, one row per power (alpha lam + w + rho, times the table's scale)
    and, if logs, a last row of w + log sum log i; their columns grouped by
    table, and each table's number of columns.
    """
    shared_w, shared = [], []
    direct_a, direct_n, direct_w, heads = [], [], [], []
    em_starts, em_m, em_e, em_w, tails = [], [], [], [], []
    for bounds, n_m, n_e, log_w, _ in tables:
        n = log_w.size
        # blocks ascend, so the direct ones, starting below em_min, are the first d
        d = bisect_left(bounds, em_min, hi=n)
        h = int(bounds[0] == 1 and bounds[1] >= em_min)  # then d == 1: block 0 is the head
        shared.append(h)
        if h:
            shared_w.append(log_w[0])
        elif d:
            edges = np.array((*bounds[:d], min(bounds[d], em_min)), dtype=np.int64)
            direct_a.append(edges[:-1])
            direct_n.append(edges[1:] - edges[:-1])
            direct_w.append(log_w[:d])
        j = d - 1 if d and bounds[d] > em_min else d  # block j straddles em_min
        if j < d:  # its tail is one more Euler-Maclaurin block
            t_m, t_e = _int_parts((bounds[d] - em_min,))
            em_starts.append(em_min)
            em_m.append(t_m)
            em_e.append(t_e)
        em_starts += bounds[d:n]
        em_m.append(n_m[d:])
        em_e.append(n_e[d:])
        em_w.append(log_w[j:])
        heads.append(d - h)
        tails.append(n - j)
    scales = np.array([s for *_, s in tables])
    alpha = np.array(powers, dtype=np.float64).reshape(-1, 1)
    groups = []
    if shared_w:  # one column of sums, broadcast over the tables that share it
        groups.append((_head_sums(em_min, tuple(powers)), np.array(shared_w), shared))
    if direct_a:
        groups.append((_direct_route(_join(direct_a), _join(direct_n), powers), _join(direct_w),
                       heads))
    if em_starts:
        sizes = (_join(em_m), _join(em_e))
        groups.append((_em_route(_int_parts(em_starts), sizes, powers), _join(em_w), tails))
    cols = np.add(shared, heads) + tails
    terms = np.empty((len(powers) + logs, int(cols.sum())))
    c = 0
    for ((lam, rho), rho_logs), w, per_table in groups:
        scale = np.repeat(scales, per_table)
        rows = terms[: len(powers), c : c + w.size]
        np.add(w, rho, out=rows)
        rows *= scale
        rows += (alpha * scale) * lam  # (alpha scale) lam + scale (w + rho)
        if logs:
            np.add(w, rho_logs, out=terms[-1, c : c + w.size])
        c += w.size
    if len(tables) > 1:  # each table's columns together, in route order
        owner = np.concatenate([np.repeat(np.arange(len(tables)), n) for *_, n in groups])
        terms = terms[:, np.argsort(owner, kind="stable")]
    return terms, cols


def _check_alphas(alphas) -> None:
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise DistributionError(f"alpha must be finite, got {alpha}")


def _log_sums(tables, alphas):
    """The rank-sum kernel: one pass per threshold over the blocks of a list of tables.

    _log_sums(tables, alphas) takes each table as (bounds, size_parts,
    log_weights, scale). Its block j holds ranks bounds[j] .. bounds[j + 1] - 1
    (exact, strictly ascending ints) at log weight log_weights[j];
    size_parts are the sizes as _int_parts gives them, taken once by the
    caller. The weights descend, so the blocks of weight 0, which are
    skipped, are the last ones; adjacent blocks of exactly equal weight are
    summed as one range, a rule on each table alone. Returns, per table,
    ([scale * log sum_j w_j sum_{i in j} i^alpha for each alpha],
    log sum_j w_j sum_{i in j} log i).

    Every alpha is routed at its own threshold, _em_min(alpha): the
    ranks below it summed directly, the ranks from it on by the corrected
    midpoint Euler-Maclaurin form, whose first neglected term is then at
    most 1e-16 (_EM_TOL) of the sum from _EM_LOW on, and from _EM_MIN on
    for -14.6 <= alpha <= 17.6 (log_rank_power_sum states the bound). The
    alphas are grouped by threshold, so the ranks are split at most twice:
    at _EM_LOW, where the sum of logs is taken as well, and at _EM_MIN.
    Each threshold runs each route once over the blocks of all the tables,
    the alphas as the rows of 2-D arrays, and makes one _lse_segments call,
    so a table's results are, bit for bit, those it gets alone. A table's
    range that starts at rank 1 and reaches the threshold sums ranks
    1 .. threshold - 1 once per process per (threshold, alphas): _head_sums
    keeps that block's direct sums, at most _HEAD_KEYS keys, and they are
    bit for bit the pass's own, since log and exp are elementwise and
    reduceat sums each block alone. alpha = 0
    takes no rule of its own: callers know E[G^0]. The terms stay scaled,
    so a huge alpha overflows only where scale * log of the sum would. A
    non-finite alpha raises DistributionError. The log of the sum of rounded
    logs times float weights is off by up to 32 ulp on a uniform table of N
    words: about 2 ulp of log N.
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
    tiers: dict[int, list[float]] = {_EM_LOW: []}  # the sum of logs takes the low tier
    for alpha in powers:
        tiers.setdefault(_em_min(alpha), []).append(alpha)

    scales = [s for *_, s in live]
    with np.errstate(all="ignore"):
        sums = {}
        for em_min, group in tiers.items():
            logs = em_min == _EM_LOW
            terms, cols = _tier(live, em_min, group, logs)
            row_scales = [scales] * len(group) + ([[1.0] * len(live)] if logs else [])
            rows = _lse_segments(terms, row_scales, cols)
            sums.update(zip(group, rows))
            if logs:
                log_logs = rows[-1]
    for j, i in enumerate(at):
        out[i] = ([sums[a][j] for a in alphas], log_logs[j])
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

    The ranks below _em_min(alpha) by one numpy sum in the log domain, the
    ranks from it on by the corrected midpoint Euler-Maclaurin closed form;
    alpha = 0 is log n. The form's first neglected term is at most
    (7/5760)|alpha (alpha-1)(alpha-2)(alpha-3)| / (a - 1/2)^4 of the sum
    from rank a on: at most 1e-16 from _EM_LOW = 4,096 on for
    -0.98 <= alpha <= 3.98, and from _EM_MIN = 30,000 on for
    -14.6 <= alpha <= 17.6; it grows as (alpha/a)^4 past that (at
    alpha = 1e5 the log is off by 0.19 on ranks from 30,000 on), and is zero
    at alpha = 1, 2. Rounding adds a few 1e-15 of the sum (3.3e-15 at most
    against mpmath over 3,000 random ranges from 4,096 on); near alpha = 0
    the closed form cancels on short ranges, so there its relative error on
    the log grows like 1/alpha, and |alpha| < 1e-2 keeps the 30,000
    threshold; one rank a is alpha log a on every route. When alpha log i
    leaves float range the result is its limit, +inf or -inf; a non-finite
    alpha raises DistributionError. The table kernel (_log_sums) run on one
    block; at alpha = 0, log n from the block's own size parts.
    """
    (bounds, parts, log_w), alpha = _one_block(a, b), float(alpha)
    if alpha == 0.0:
        return float(_log_parts(*parts)[0])
    return _log_sums([(bounds, parts, log_w, 1.0)], (alpha,))[0][0][0]
