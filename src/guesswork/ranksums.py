"""Exact rank sums over the blocks of a guess table.

A guess table puts each type class on a range of consecutive ranks, so
every finite-k moment is a weighted sum over blocks of sum_{i=a}^{b} i^alpha
(or sum log i for E[log G]), with a and b exact integers that pass float
range for binary words at k ~ 10^3. `_log_sums` takes these sums for a whole
table in one pass per threshold over per-block arrays; `log_rank_power_sum` runs
it on one range (`_one_block`). Each alpha is routed by its own
threshold, `_em_min(alpha)`: ranks below it are summed directly, ranks from
it on by the corrected midpoint Euler-Maclaurin closed form, and the one
range that straddles it is split there. The threshold is _EM_LOW = 4,096
where the first term the closed form neglects is at most 1e-16 of the sum
there and alpha is not near 0 (about 1e-2 <= |alpha|, -0.98 <= alpha <=
3.98, the default alphas among them), and _EM_MIN = 30,000 for every other
alpha; the sum of logs takes _EM_LOW. alpha = 0, the block size, is log n.
Every log-sum-exp (`_lse`) takes its sum from `_exact_sum`, which returns
math.fsum's correctly rounded float, by a guarded numpy cascade on long
inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_left

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


def _lse(terms, scale: float = 1.0) -> float:
    """scale * log sum_i exp(terms_i / scale), the sum correctly rounded (_exact_sum).

    The terms come already multiplied by scale, so that a caller after
    (1/k) log of a sum can keep terms finite whose unscaled values would
    overflow. -inf terms drop out; a +inf term makes the result +inf.
    """
    terms = np.asarray(terms, dtype=np.float64)
    terms = terms[terms != -math.inf]
    if not terms.size:
        return -math.inf
    top = float(terms.max())
    if top == math.inf:
        return math.inf
    return top + scale * math.log(_exact_sum(np.exp((terms - top) / scale)))


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

    The ranks are exact floats, summed in one pass over their logs. Returns,
    per alpha, (lam, rho) with log sum_i i^alpha = alpha lam + rho, lam the
    log of the block's largest term's rank; and log sum_i log i per block.
    """
    off = np.cumsum(cnt) - cnt
    log_i = np.arange(int(off[-1] + cnt[-1]), dtype=np.float64)
    log_i += np.repeat(a - off, cnt)
    np.log(log_i, out=log_i)
    sums = []
    for alpha in powers:
        lam = log_i[off + cnt - 1] if alpha > 0.0 else log_i[off]
        d = log_i - np.repeat(lam, cnt)
        d *= alpha
        sums.append((lam, np.log(np.add.reduceat(np.exp(d, out=d), off))))
    return sums, np.log(np.add.reduceat(log_i, off))


def _em_route(a_parts, n_parts, powers):
    """Corrected midpoint Euler-Maclaurin sums over blocks of n ranks from a >= the threshold.

    With Y = a - 1/2 and X = a + n - 1/2, sum_{i=a}^{a+n-1} i^alpha is
    integral_Y^X x^alpha dx times 1 - (alpha/24)(X^(alpha-1) - Y^(alpha-1)) / integral
    (a^alpha itself when n = 1), and sum log i is integral_Y^X log x dx + (1/24)(1/Y - 1/X), all in the log domain. Returns
    per alpha (lam, rho) with log sum = alpha lam + rho, and the log sum of
    logs per block.
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
    sums = []
    for alpha in powers:
        s = alpha + 1.0
        if s > 0.0:
            lam = log_x
            rest = np.log(-np.expm1(-s * t)) - math.log(s)
            e_x = -2.0 * log_x - rest
            e_y = e_x - (alpha - 1.0) * t
        else:
            lam = log_y
            rest = np.log(t) if s == 0.0 else np.log(-np.expm1(s * t)) - math.log(-s)
            e_y = -2.0 * log_y - rest
            e_x = e_y + (alpha - 1.0) * t
        # the first midpoint correction, -(1/24)(f'(X) - f'(Y)), as a ratio to the
        # integral: O(alpha^2/a^2); where it is not small, alpha is out of the
        # closed form's reach and the integral alone stands
        corr = (alpha / 24.0) * (np.exp(e_y) - np.exp(e_x))
        rho = lam + rest + np.log1p(np.where(np.abs(corr) < 0.5, corr, 0.0))
        lam, rho = np.where(tiny, log_y, lam), np.where(tiny, log_y + log_ratio, rho)
        sums.append((np.where(one, log_a, lam), np.where(one, 0.0, rho)))
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


def _routes(bounds, n_m, n_e, log_w, em_min, powers):
    """The routes of one threshold over the live blocks, as [(route sums, log weights)].

    One numpy pass over the ranks below em_min, from exact int64 bounds;
    Euler-Maclaurin for the blocks from em_min on, whose starts alone are
    converted; and the one block that straddles em_min ends its direct head
    there, its tail from em_min on summed as one more Euler-Maclaurin block
    at that block's weight.
    """
    n = log_w.size
    groups = []
    # blocks ascend, so the direct ones, starting below em_min, are the first d
    d = bisect_left(bounds, em_min, hi=n)
    if d:
        edges = np.array((*bounds[:d], min(bounds[d], em_min)), dtype=np.int64)
        groups.append((_direct_route(edges[:-1], np.diff(edges), powers), log_w[:d]))
    if d and bounds[d] > em_min:  # the straddling block's tail
        t_m, t_e = _int_parts((bounds[d] - em_min,))
        j, starts = d - 1, (em_min, *bounds[d:n])
        sizes = (np.concatenate((t_m, n_m[d:])), np.concatenate((t_e, n_e[d:])))
    else:
        j, starts, sizes = d, bounds[d:n], (n_m[d:], n_e[d:])
    if j < n:
        groups.append((_em_route(_int_parts(starts), sizes, powers), log_w[j:]))
    return groups


def _log_sums(bounds, size_parts, log_weights, alphas, *, scale: float = 1.0):
    """The rank-sum kernel: one pass over blocks of consecutive ranks per threshold.

    Block j holds ranks bounds[j] .. bounds[j + 1] - 1 (exact, strictly
    ascending ints) at log weight log_weights[j]; size_parts are the sizes
    as _int_parts gives them, taken once by the caller. The weights descend,
    so the blocks of weight 0, which are skipped, are the last ones. Returns
    [scale * log sum_j w_j sum_{i in j} i^alpha for each alpha] and
    log sum_j w_j sum_{i in j} log i.

    Every alpha but 0 is routed at its own threshold, _em_min(alpha): the
    ranks below it summed directly, the ranks from it on by the corrected
    midpoint Euler-Maclaurin form, whose first neglected term is then at
    most 1e-16 (_EM_TOL) of the sum from _EM_LOW on, and from _EM_MIN on
    for -14.6 <= alpha <= 17.6 (log_rank_power_sum states the bound). The
    alphas are grouped by threshold, so the ranks are split at most twice:
    at _EM_LOW, where the sum of logs is taken as well, and at _EM_MIN.
    alpha = 0 is log n per block. The terms stay scaled, so a huge alpha
    overflows only where scale * log of the sum would. A non-finite alpha
    raises DistributionError.
    """
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise DistributionError(f"alpha must be finite, got {alpha}")
    log_w = np.asarray(log_weights, dtype=np.float64)
    n = int(np.count_nonzero(log_w > -math.inf))  # the live blocks are the first n
    if not n:
        return [-math.inf for _ in alphas], -math.inf
    log_w, n_m, n_e = log_w[:n], size_parts[0][:n], size_parts[1][:n]
    powers = list(dict.fromkeys(a for a in alphas if a != 0.0))
    tiers: dict[int, list[float]] = {_EM_LOW: []}  # the sum of logs takes the low tier
    for alpha in powers:
        tiers.setdefault(_em_min(alpha), []).append(alpha)

    with np.errstate(all="ignore"):
        terms: dict[float, list[np.ndarray]] = {a: [] for a in powers}
        log_terms = []
        for em_min, group in tiers.items():
            for (sums, rho_logs), w in _routes(bounds, n_m, n_e, log_w, em_min, group):
                for alpha, (lam, rho) in zip(group, sums):
                    terms[alpha].append((alpha * scale) * lam + scale * (w + rho))
                if em_min == _EM_LOW:
                    log_terms.append(w + rho_logs)
        out = []
        for alpha in alphas:
            if alpha == 0.0:  # sum_i i^0 is the block size n
                out.append(_lse(scale * (log_w + _log_parts(n_m, n_e)), scale))
            else:
                out.append(_lse(np.concatenate(terms[alpha]), scale))
        return out, _lse(np.concatenate(log_terms))


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
    block.
    """
    return _log_sums(*_one_block(a, b), (float(alpha),))[0][0]
