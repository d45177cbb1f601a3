"""The rank-sum kernel's one log-sum-exp against its stated summation bound, and the kernel's
stated bound on rank-power sums, against math.fsum and 50-digit mpmath references."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from guesswork import DistributionError, conditioned, oracle, ranksums
from guesswork.ranksums import _lse

U = 2.0**-53


def _terms(shape: str, n: int, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "exp":  # a table's terms: exp(-t), t exponential at the given scale
        x = np.exp(-rng.exponential(scale, n))
    elif shape == "grid":  # the same on a 2^-20 grid: many equal terms
        x = np.round(np.exp(-rng.exponential(scale, n)) * 2.0**20) * 2.0**-20
    elif shape == "equal":
        x = np.full(n, rng.random())
    elif shape == "ties":  # 1 plus a few quarters of its ulp: sums on and beside ties
        x = rng.choice([2.0**-54, 2.0**-53, 3 * 2.0**-54], n) * (rng.random(n) < 4.0 / n)
    elif shape == "tail_tie":  # 1 + 2^-53, a tie, and terms below 2^-80 that break it
        x = rng.random(n) * 2.0**-81
        x[rng.integers(0, n)] = 2.0**-53
    else:  # "wide": from 1 down to subnormals
        x = rng.random(n) * np.ldexp(1.0, -rng.integers(0, 1080, n))
    x[rng.integers(0, n)] = 1.0  # _lse's terms always hold exp(0)
    return x


def _lse_bound(n: int, scale: float, want: float) -> float:
    """The stated bound on a log-sum-exp of n terms at `scale`, from the exact sum S of its
    exponentials: the float sum is within gamma_d S, d = ceil(log2 n) + 17 (ranksums' module
    docstring), so its log within -log(1 - gamma_d); plus u of S, math.fsum's one rounding
    where it gives the reference, and the roundings of the log, the product and the sum."""
    d = (n - 1).bit_length() + 17
    gamma = d * U / (1.0 - d * U)
    return scale * (-math.log1p(-gamma) + U) + 3.0 * math.ulp(want)


def _one_segment(terms, scale=1.0):
    terms = np.array(terms, dtype=np.float64).reshape(1, -1)  # a copy: the kernel sums in place
    return ranksums._lse_segments(terms, [[scale]], np.array([terms.shape[1]]))[0][0]


def _scaled_lse(terms, scale):
    # _lse at scale 1; a scaled sum is one segment of _lse_segments
    return _lse(terms) if scale == 1.0 else _one_segment(terms, scale)


def _references(terms: np.ndarray, scale: float) -> tuple[float, float]:
    """top + scale log S for the exact sum S of the row's exponentials, as the kernel forms
    them: by math.fsum (S correctly rounded) and by 50-digit mpmath."""
    from mpmath import mp, mpf

    top = float(terms.max())
    x = np.exp((terms - top) / scale).tolist()
    with mp.workdps(50):
        exact = float(top + scale * mp.log(mp.fsum(map(mpf, x))))
    return top + scale * math.log(math.fsum(x)), exact


def _check_sum(terms: np.ndarray, scale: float) -> None:
    got = _scaled_lse(terms, scale)
    for want in _references(terms, scale):
        assert abs(got - want) <= _lse_bound(terms.size, scale, want), (got, want)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("exp", "grid", "equal", "ties", "wide", "tail_tie")),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
    st.floats(1.0, 700.0),
    st.sampled_from((1.0, 0.01, 1.0 / 186)),
)
def test_lse_stays_within_the_stated_bound(shape, n, seed, scale, kernel_scale):
    # rows of a table's shape, wide-range rows down to subnormals and rows on and
    # beside ties, at scale 1 (_lse) and at the kernel's 1/k scales (_lse_segments)
    with np.errstate(divide="ignore"):  # the "ties" rows hold zeros: -inf terms
        terms = kernel_scale * np.log(_terms(shape, n, seed, scale))
    _check_sum(terms, kernel_scale)


@pytest.mark.parametrize("shape", ["exp", "wide", "tail_tie"])
def test_long_rows_stay_within_the_stated_bound(shape):
    # 300,007 terms: eleven halvings past numpy's blocks of 128, and a
    # remainder off its multiples of 8
    with np.errstate(divide="ignore"):
        terms = np.log(_terms(shape, 300007, 1, 30.0))
    _check_sum(terms, 1.0)


@pytest.mark.parametrize("head, want", [
    ([1.0, 2.0**-53], 1.0),  # 1 + 2^-53 ties between 1 and 1 + 2^-52: to even
    ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),  # a tie inside a binade: to even
])
def test_near_ties_stay_within_the_stated_bound(head, want):
    # the row's exact sum is a tie, which math.fsum rounds to even; the kernel's
    # pairwise sum may round it either way, within the bound of both references
    x = np.zeros(2000)
    x[: len(head)] = head
    assert math.fsum(x.tolist()) == want
    with np.errstate(divide="ignore"):
        terms = np.log(x)
    _check_sum(terms, 1.0)


def test_lse_segments_makes_no_second_terms_array():
    # the shift, the scale and exp run in place, and each sum reads its slice:
    # one call on a table's five rows peaks far below a copy of its terms
    rng = np.random.default_rng(3)
    terms = -rng.exponential(30.0, (5, 20000))
    sizes = np.array([7000, 13000])
    scales = [[1.0 / 186, 1.0]] * 5
    tracemalloc.start()
    try:
        ranksums._lse_segments(terms, scales, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < terms.nbytes / 2


@pytest.mark.parametrize("n", [10, 2000])
@pytest.mark.parametrize("scale", [1.0, 0.01])
def test_lse_non_finite_terms(n, scale):
    # -inf terms drop out, a +inf term makes the result +inf, a nan makes it nan;
    # finite rows within the stated bound of the fsum reference
    terms = scale * np.log(_terms("exp", n, 2, 30.0))
    want = float(terms.max()) + scale * math.log(
        math.fsum(np.exp((terms - terms.max()) / scale).tolist()))
    assert abs(_scaled_lse(terms, scale) - want) <= _lse_bound(n, scale, want)
    assert (abs(_scaled_lse(np.concatenate((terms, [-math.inf] * n)), scale) - want)
            <= _lse_bound(2 * n, scale, want))
    assert _scaled_lse(np.append(terms, math.inf), scale) == math.inf
    assert math.isnan(_scaled_lse(np.append(terms, math.nan), scale))
    assert math.isnan(_scaled_lse(np.append(terms, [math.nan, math.inf]), scale))
    assert _scaled_lse(np.full(n, -math.inf), scale) == -math.inf


def _log_terms(shape, n, seed, scale):
    with np.errstate(divide="ignore"):  # the "ties" rows hold zeros: -inf terms
        return np.log(_terms(shape, n, seed, scale))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(st.floats(-800.0, 800.0),
                       st.sampled_from((-math.inf, math.inf, math.nan))), min_size=1, max_size=40),
    st.builds(_log_terms, st.sampled_from(("exp", "grid", "equal", "ties", "wide", "tail_tie")),
              st.integers(1, 3000), st.integers(0, 2**32 - 1), st.floats(1.0, 700.0)),
))
def test_lse_is_the_one_segment_lse_segments_bit_for_bit(terms):
    # _lse is the kernel's log-sum-exp on one row and one segment: the same
    # float, inf and nan included
    assert repr(_lse(terms)) == repr(_one_segment(terms))


def test_lse_of_the_empty_row_is_minus_inf():
    assert _lse([]) == _lse(np.empty(0)) == -math.inf


def _em_zeta(s, a):
    """zeta(s, a) by its Euler-Maclaurin asymptotic series, for a large against |s|."""
    from mpmath import bernoulli, factorial, mpf, rf

    a = mpf(a)
    total = a ** (1 - s) / (s - 1) + a ** (-s) / 2
    for j in range(1, 25):
        total += bernoulli(2 * j) / factorial(2 * j) * rf(s, 2 * j - 1) * a ** (-s - 2 * j + 1)
    return total


@st.composite
def _ranges_with_references(draw):
    """(a, b, alpha) and log sum_{i=a}^{b} i^alpha, to 40 digits.

    Short ranges sum exactly: Python ints at integer 0 < alpha <= 5, mpmath
    terms otherwise. Long ones take the Hurwitz zeta difference by its asymptotic
    series, from a rank large against alpha (`far`) on, and for |alpha| <=
    20 the ranks below it one by one; or, for alpha large against b, the
    top terms until the rest is below 1e-45 of the sum.
    """
    from mpmath import mp, mpf

    alpha = draw(st.one_of(st.floats(-1.0, 1e5, exclude_min=True),
                           st.floats(-1.0, 5.0, exclude_min=True),
                           st.sampled_from((-0.5, 0.5, 1.0, 2.0, 1e3, 2e4, 1e5))))
    assume(alpha != 0.0)
    far = int(40 * abs(alpha)) + 1000  # the series converges fast from here on
    regime = draw(st.sampled_from(("short", "far", "head", "top")))
    if regime == "short":
        a = draw(st.one_of(st.integers(1, 5000), st.integers(1, 2**1100)))
        b = a + draw(st.integers(0, 300))
    elif regime == "far":
        a = draw(st.integers(far, 2**1100))
        b = a + draw(st.integers(301, 2**1100))
    elif regime == "head":  # from the bottom ranks to far past float range
        assume(abs(alpha) <= 20)
        a = draw(st.integers(1, 5000))
        b = max(a + 301, far) + draw(st.integers(0, 2**1100))
    else:  # alpha large against the ranks
        assume(alpha >= 10)
        b = draw(st.integers(302, int(50 * alpha)))
        a = draw(st.integers(1, b - 301))
    # nearer 0 than 1e-2 the expansion cancels on short ranges (ROADMAP item 2): those
    # alphas keep the direct route below rank 30,000 and their old error beyond
    assume(abs(alpha) >= 1e-2 or b < 30000)
    # digits enough for the difference of the two zeta values where the range is short
    # against its start
    with mp.workdps(40 + max(0, len(str(a)) - len(str(b - a + 1)))):
        if regime == "short":
            if alpha == int(alpha) and alpha <= 5:
                want = mp.log(sum(i ** int(alpha) for i in range(a, b + 1)))
            else:
                want = mp.log(mp.fsum(mpf(i) ** alpha for i in range(a, b + 1)))
        elif regime == "far":
            want = mp.log(_em_zeta(-alpha, a) - _em_zeta(-alpha, b + 1))
        elif regime == "head":  # the ranks below `far` one by one
            far = max(a, far)
            head = mp.fsum(mpf(i) ** alpha for i in range(a, far))
            want = mp.log(head + _em_zeta(-alpha, far) - _em_zeta(-alpha, b + 1))
        else:
            top, total = mpf(b) ** alpha, mpf(0)
            for i in range(b, a - 1, -1):
                term = mpf(i) ** alpha
                total += term
                if term < top * mpf(10) ** -45:
                    break
            want = mp.log(total)
    return a, b, alpha, float(want)


# two ranks far past their start, where log X + log((X - Y)/X) cancelled:
# 1.6e-14 and 9.1e-15 off against bounds of 8.3e-15 and 7.3e-15; and two
# ranks past float range at an alpha near 0, whose tiny-range form took log n
# as log Y + log(n/Y) and missed log 2 by 5.5e-14. References: 50-digit mpmath.
SHORT_FAR_RANGES = [
    (1678897120305327710932721205241, 1678897120305327710932721205242, 0.02, 2.085060978393007),
    (10799588894808623833124175873, 10799588894808623833124175874, 0.015625,
     1.7017300802310298),
    (377 * 10**331, 377 * 10**331 + 1, -3.0984368181268835e-45, math.log(2.0)),
]


@settings(max_examples=100, deadline=None)
@given(_ranges_with_references())
@example((30000, 30040, 1e3, 10313.409095632167))
@example((30000, 30040, 2e4, 206206.42336662943))
@example((30000, 30040, 1e5, 1031028.5470760313))
@example((2200, 2201, 17.0, 131.5326322684125))
@example((2200, 2300, 10.0, 81.809513202723))
@example((1, 17, -0.5, 1.9324673746584353))
@example((1, 16, -0.5, 1.8967190957761955))
@example((1, 16, 0.5, 3.794796738250632))
@example((1, 16, 3.3, 10.593661389290629))
@example((15, 16, -0.5, -0.6768823927754352))
@example((15, 16, 0.5, 2.0634370688955603))
@example((15, 16, 3.3, 9.741860627112617))
@example(SHORT_FAR_RANGES[0])
@example(SHORT_FAR_RANGES[1])
@example(SHORT_FAR_RANGES[2])
def test_rank_power_sums_stay_within_the_stated_bound(case):
    # log_rank_power_sum is off by at most _EM_TOL of the sum (each block's
    # truncation) plus rounding: a few 1e-15 of the sum, and a few ulp of the
    # two logs the result is made of, alpha lam (at most |alpha| log b, the log
    # of the largest term) and rho (at most that plus the result). The first
    # examples are the large-alpha ranges the one-order form missed by 1.5e-9,
    # 2.4e-4 and 0.194 on the log; then two integer alphas whose expansion is
    # exact only at a high order, so that order 1 alone would miss by 3e-12;
    # a range whose rest from rank 16 is two ranks; and ranges whose rest is
    # rank 16 alone, summed exactly, so that their ranks below it must take
    # the range sum without the expansion's terms at 15.5. The last three are
    # SHORT_FAR_RANGES. Their references are 50-digit mpmath sums.
    a, b, alpha, want = case
    bound = 4e-15 + 2.0**-50 * (2 * abs(alpha) * math.log(b) + abs(want))
    assert abs(ranksums.log_rank_power_sum(a, b, alpha) - want) <= bound


@pytest.mark.parametrize("case", SHORT_FAR_RANGES, ids=["a1.7e30_alpha0.02",
                                                        "a1.1e28_alpha0.015625",
                                                        "a3.8e333_alpha-3.1e-45"])
def test_short_far_ranges_take_rho_from_log_n(case):
    # each within an ulp of its reference, far inside the stated bound
    a, b, alpha, want = case
    assert abs(ranksums.log_rank_power_sum(a, b, alpha) - want) <= math.ulp(want)


@pytest.mark.parametrize("call, outcome", [
    (lambda: ranksums.log_rank_power_sum(5, 3, 1.0), DistributionError),  # b < a
    (lambda: ranksums.log_rank_power_sum(0, 3, 1.0), DistributionError),  # a rank 0
    # every k's typical set is empty, so the kernel gets no table and returns at once
    (lambda: oracle._finite_k_batch(conditioned((0.8, 0.2), 0.001), (1, 2), None,
                                    max_words=100), ({1: None, 2: None}, [])),
], ids=["b_below_a", "rank_zero", "no_table"])
def test_rank_sum_refusals_and_empty_batches(call, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call()
    else:
        assert call() == outcome
