"""Exact finite-k oracles: guess tables, censuses, sandwiches, crosschecks."""

import contextlib
import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guesswork import cli, oracle
from guesswork import (
    ConvergencePoint,
    DistributionError,
    EmptyTypicalSetError,
    LetterDistribution,
    TypeSpaceTooLargeError,
    TypeVector,
    WordSpaceTooLargeError,
    build_guess_table,
    conditioned,
    convergence_series,
    cross_entropy,
    enumerate_types,
    exact_mean_log_guesswork,
    exact_moment_log,
    finite_k_exponents,
    is_typical_type,
    log_rank_power_sum,
    modal_word_count,
    moment_sandwich,
    naive_enumeration_crosscheck,
    scgf_model,
    shannon_entropy,
    smallest_nonempty_k,
    trend_holds,
    typical_set_census,
    unconditioned,
    uniform_typical,
)
from guesswork.entropy import num_types
from guesswork.oracle import _ONE_RANK_MAX, _SMALL_ALPHA_MIN, _first_ranks, _log_sums, _one_block

P = LetterDistribution((0.8, 0.2))
EPS = 0.1
W = unconditioned(P)
C = conditioned(P, EPS)
U = uniform_typical(P, EPS)


def test_guess_table_unconditioned_k2():
    table = build_guess_table(W, 2)
    assert table.total_words == 4
    assert table.log_typical_mass == 0.0
    got = [(b.counts, b.count, b.start, math.exp(b.log_word_prob))
           for b in table.blocks]
    assert got[0] == ((2, 0), 1, 1, pytest.approx(0.64, rel=1e-12))
    assert got[1] == ((1, 1), 2, 2, pytest.approx(0.16, rel=1e-12))
    assert got[2] == ((0, 2), 1, 4, pytest.approx(0.04, rel=1e-12))
    assert table.blocks[1].end == 3


def test_guess_table_probability_descending():
    table = build_guess_table(W, 9)
    lps = [b.log_word_prob for b in table.blocks]
    assert lps == sorted(lps, reverse=True)
    assert sum(b.count for b in table.blocks) == 2**9


def test_exact_first_moments():
    for k, mean in ((1, 1.2), (2, 1.6)):
        assert math.exp(exact_moment_log(build_guess_table(W, k), 1.0)) == pytest.approx(
            mean, rel=1e-14
        )


def test_uniform_table_k5():
    table = build_guess_table(U, 5)
    assert len(table.blocks) == 1
    blk = table.blocks[0]
    assert blk.count == 5 and blk.start == 1
    assert math.exp(blk.log_word_prob) == pytest.approx(0.2, rel=1e-12)
    assert math.exp(exact_moment_log(table, 1.0)) == pytest.approx(3.0, rel=1e-12)
    assert math.exp(exact_moment_log(table, 2.0)) == pytest.approx(11.0, rel=1e-12)
    assert exact_mean_log_guesswork(table) == pytest.approx(
        math.log(120.0) / 5.0, rel=1e-12
    )
    assert math.exp(table.log_word_prob[0]) == pytest.approx(0.2, rel=1e-12)
    assert modal_word_count(table) == 5


def test_conditioned_equals_uniform_on_single_type():
    # one typical type at k=5, so conditioning is uniform on it
    tc = build_guess_table(C, 5)
    tu = build_guess_table(U, 5)
    for alpha in (-0.5, 0.5, 1.0, 2.0):
        assert exact_moment_log(tc, alpha) == pytest.approx(
            exact_moment_log(tu, alpha), abs=1e-12
        )


def test_empty_typical_set_raises():
    with pytest.raises(EmptyTypicalSetError):
        build_guess_table(C, 2)


def test_symmetric_source_ties():
    p = LetterDistribution((0.5, 0.5))
    table = build_guess_table(unconditioned(p), 3)
    assert modal_word_count(table) == 8
    assert math.exp(table.log_word_prob[0]) == pytest.approx(0.125, rel=1e-14)
    assert math.exp(exact_moment_log(table, 1.0)) == pytest.approx(4.5, rel=1e-14)
    # moments see through block boundaries: all ranks weighted equally
    direct = math.fsum(i**1.3 for i in range(1, 9)) / 8.0
    assert math.exp(exact_moment_log(table, 1.3)) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("source, ks", [
    (W, (10, 60, 1100)),
    (C, (10, 60, 1100)),
    (U, (10, 60, 1100)),
    (unconditioned((0.5, 0.3, 0.2)), (10, 30, 60)),
    (conditioned((0.5, 0.3, 0.2), 0.05), (10, 30, 60)),
    (unconditioned((0.6, 0.0, 0.4)), (10, 30, 60)),
])
def test_zeroth_moment_is_exactly_one(source, ks):
    # E[G^0] = 1 for every normalised table: its log and (1/k) log are 0.0
    # exactly, not the +-1e-15 of summing the table's probabilities
    for k in ks:
        assert exact_moment_log(build_guess_table(source, k), 0.0) == 0.0
        exps = finite_k_exponents(source, k, alphas=(-0.5, 0.0, 1.0, 0.0))
        assert exps.moment_exponent(0.0) == 0.0
        assert exps.moment_exponent(1.0) > 0.0
    # the bare rank sum of i^0 stays the range's length
    for a, b in ((1, 1), (7, 29_999), (29_000, 31_000), (10**20, 3 * 10**20), (1, 2**1100),
                 (2**1100, 2**1101)):
        assert log_rank_power_sum(a, b, 0.0) == math.log(b - a + 1)


def test_census_frozen_inventory():
    c5 = typical_set_census(P, EPS, 5)
    assert len(c5.types) == 1
    assert c5.cardinality == 5
    assert c5.prob_mass == pytest.approx(0.4096, rel=1e-12)
    c10 = typical_set_census(P, EPS, 10)
    assert c10.cardinality == 45
    assert c10.prob_mass == pytest.approx(0.301989888, rel=1e-12)
    c14 = typical_set_census(P, EPS, 14)
    assert len(c14.types) == 2
    assert c14.cardinality == 455
    assert c14.max_type_count == 364


def test_census_empty_is_valid():
    c2 = typical_set_census(P, EPS, 2)
    assert c2.is_empty
    assert c2.cardinality == 0
    assert smallest_nonempty_k(P, EPS) == 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_census_keeps_its_read_only_count_matrix(data):
    # on laws with a zero letter, the census rows are exactly the k-types that
    # is_typical_type accepts, with eps drawn to put a k-type on a window edge
    m = data.draw(st.integers(2, 4))
    raw = data.draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    raw[data.draw(st.integers(0, m - 1))] = 0.0
    p = LetterDistribution(tuple(v / math.fsum(raw) for v in raw))
    k = data.draw(st.integers(1, 14))
    types = list(enumerate_types(k, m))
    eps = abs(cross_entropy(data.draw(st.sampled_from(types)), p) - shannon_entropy(p))
    if not 0.0 < eps < math.inf:  # the drawn type costs h(p) or leaves p's support
        eps = data.draw(st.floats(1e-6, 1.0))
    census = typical_set_census(p, eps, k)
    rows = census.counts.tolist()
    assert rows == [list(l.counts) for l in types if is_typical_type(p, eps, l)]
    assert all(type(c) is int for row in rows for c in row)
    assert all(isinstance(t, TypeVector) for t in census.types)
    assert [list(t.counts) for t in census.types] == rows
    assert typical_set_census(P, EPS, 2).counts.tolist() == []
    with pytest.raises(ValueError):
        census.counts[...] = 0
    # an ndarray field cannot back a value ==: a census equals itself alone,
    # not a census of the same law and k, and hashes by identity
    again = typical_set_census(p, eps, k)
    assert census == census and census != again and len({census, again}) == 2


def test_census_union_bound():
    for k in range(4, 15):
        c = typical_set_census(P, EPS, k)
        assert c.max_type_count <= c.cardinality <= (k + 1) ** 2 * c.max_type_count


def test_finite_k_exponents():
    f = finite_k_exponents(C, 10)
    assert f.k == 10
    assert f.moment_exponent(1.0) == pytest.approx(
        exact_moment_log(build_guess_table(C, 10), 1.0) / 10.0, abs=1e-14
    )
    # single typical type at k=10: every word is modal
    assert f.modal_count_exponent == pytest.approx(math.log(45.0) / 10.0, rel=1e-12)
    assert f.typical_size_exponent == pytest.approx(math.log(45.0) / 10.0, rel=1e-12)
    assert finite_k_exponents(W, 6).typical_size_exponent is None
    with pytest.raises(KeyError):
        f.moment_exponent(0.123)


def test_moment_sandwich_holds():
    for k in (4, 9, 14):
        for alpha in (0.5, 1.0):
            b = moment_sandwich(C, k, alpha)
            assert b.holds
            assert b.log_lower <= b.log_value <= b.log_upper
        for alpha in (-0.5, 0.0):
            assert moment_sandwich(C, k, alpha).holds


def test_moment_sandwich_validation():
    with pytest.raises(DistributionError):
        moment_sandwich(W, 6, 1.0)
    # no form of the bracket reaches alpha <= -1
    for alpha in (-1.0, -2.0):
        with pytest.raises(DistributionError, match="needs alpha > -1"):
            moment_sandwich(C, 6, alpha)


@pytest.mark.parametrize("k", [1300, 2000])
def test_moment_sandwich_past_float_range(k):
    # E[G] leaves float range near k = 1250 (the upper bound is 3.7e256 at
    # k = 1000); the bracket is compared in the log domain
    b = moment_sandwich(C, k, 1.0)
    assert b.holds
    assert b.log_value > math.log(sys.float_info.max)
    assert b.log_lower <= b.log_value <= b.log_upper < math.inf
    assert moment_sandwich(C, k, -0.5).holds


def test_convergence_series_targets():
    pts = convergence_series(C, "scgf", (6, 10), alpha=1.0)
    model = scgf_model(C)
    assert all(pt.target == model(1.0) for pt in pts)
    assert pts[0].k == 6 and pts[1].k == 10
    assert pts[1].gap < pts[0].gap
    with pytest.raises(DistributionError):
        convergence_series(W, "typical_size", (6,))
    with pytest.raises(DistributionError):
        convergence_series(C, "no_such_series", (6,))
    with pytest.raises(EmptyTypicalSetError):
        convergence_series(C, "scgf", (2,))


def test_convergence_points_refuse_typical_size_of_the_unconditioned_source():
    # the unconditioned source's exponents have no |T|: its typical_size points
    # held value None, and trend_holds on them raised TypeError
    exponents = [finite_k_exponents(W, k) for k in (5, 10)]
    with pytest.raises(DistributionError, match="^typical_size needs a typical-set source kind$"):
        oracle.convergence_points(exponents, scgf_model(W), "typical_size")
    points = oracle.convergence_points([finite_k_exponents(C, k) for k in (6, 10)],
                                       scgf_model(C), "typical_size")
    assert [pt.value for pt in points] == [math.log(build_guess_table(C, k).total_words) / k
                                           for k in (6, 10)]


def test_trend_holds_predicate():
    def pt(k, gap):
        return ConvergencePoint(k=k, value=gap, target=0.0)

    assert trend_holds((pt(6, 0.3), pt(10, 0.4), pt(14, 0.1)))
    assert not trend_holds((pt(6, 0.1), pt(14, 0.3)))
    # series exact at every finite k count as converged
    assert trend_holds((pt(6, 0.0), pt(14, 0.0)))
    assert trend_holds((pt(6, 5e-13), pt(14, 4e-13)))


def test_log_rank_power_sum_exact_orders():
    assert log_rank_power_sum(5, 104, 0.0) == pytest.approx(math.log(100.0), rel=1e-14)
    assert log_rank_power_sum(3, 7, 1.0) == pytest.approx(math.log(25.0), rel=1e-14)
    assert log_rank_power_sum(1, 4, 2.0) == pytest.approx(math.log(30.0), rel=1e-14)
    # single-element range
    assert log_rank_power_sum(9, 9, -0.7) == pytest.approx(-0.7 * math.log(9.0), rel=1e-13)


def test_log_rank_power_sum_vs_direct():
    cases = [(1, 1000, -0.5), (2, 60000, 1.7), (17, 3000, -1.0), (1, 500, 0.25)]
    for a, b, alpha in cases:
        direct = math.log(math.fsum(float(i) ** alpha for i in range(a, b + 1)))
        assert log_rank_power_sum(a, b, alpha) == pytest.approx(direct, abs=1e-10)


def test_log_rank_power_sum_long_ranges():
    # crosses the closed-form integration branch; reference by direct sum
    direct = math.log(math.fsum(float(i) ** -0.5 for i in range(30000, 200001)))
    assert log_rank_power_sum(30000, 200000, -0.5) == pytest.approx(direct, abs=1e-9)
    direct = math.log(math.fsum(float(i) ** 2.3 for i in range(1, 200001)))
    assert log_rank_power_sum(1, 200000, 2.3) == pytest.approx(direct, abs=1e-9)
    # b far beyond anything enumerable: sum_{i<=B} i^(-1/2) ~ 2 sqrt(B)
    got = log_rank_power_sum(1, 10**30, -0.5)
    assert got == pytest.approx(math.log(2.0) + 15.0 * math.log(10.0), abs=1e-9)



def test_log_rank_power_sum_single_huge_rank():
    a = 2**1100
    for alpha in (-1.5, -0.5, 0.5, 3.0):
        assert log_rank_power_sum(a, a, alpha) == alpha * math.log(a)


def test_log_sum_of_logs_single_huge_rank():
    a = 2**1100
    assert _log_sums([(*_one_block(a, a), 1.0)], ())[0][1] == math.log(math.log(a))


def test_rank_sums_whose_range_ratio_leaves_float_range():
    # 2n/(2a-1) below the float range: a short range far out sums to n a^alpha
    a, n = 2**1100, 10**6
    for alpha in (-1.5, -0.5, 0.5, 1.7):
        want = math.log(n) + alpha * math.log(a)
        assert log_rank_power_sum(a, a + n - 1, alpha) == pytest.approx(want, rel=1e-14)
    assert _log_sums([(*_one_block(a, a + n - 1), 1.0)], ())[0][1] == pytest.approx(
        math.log(n * math.log(a)), rel=1e-14
    )
    # and above it: sum_{i<=B} i^alpha ~ B^(alpha+1)/(alpha+1), sum log i ~ B (log B - 1)
    log_b = math.log(2**1100)
    for alpha in (-0.5, 0.5, 1.7):
        want = (alpha + 1.0) * log_b - math.log(alpha + 1.0)
        assert log_rank_power_sum(30000, 2**1100, alpha) == pytest.approx(want, rel=1e-14)
        assert log_rank_power_sum(1, 2**1100, alpha) == pytest.approx(want, rel=1e-14)
    assert _log_sums([(*_one_block(30000, 2**1100), 1.0)], ())[0][1] == pytest.approx(
        log_b + math.log(log_b - 1.0), rel=1e-14
    )


@pytest.mark.parametrize("a", [1, 2, 4095, 4096, 29999, 30000, 10**6])
def test_log_sum_of_logs_matches_loggamma_on_every_route(a):
    # sum_{i=a}^{b} log i = lgamma(b+1) - lgamma(a), at 50 digits; the a and b
    # values cover the direct sums below rank 16, the orders above 1 below rank
    # 2,160, order 1 from there on, and ends either side of 4096 and 30000
    from mpmath import mp

    ends = (4095, 4096, 4097, 29999, 30000, 30001, a + 65535, a + 65536, 10**15 - 1, 10**15 + 1,
            10**40, 2**1100)
    for b in (b for b in ends if b >= a):
        with mp.workdps(50):
            want = float(mp.log(mp.loggamma(b + 1) - mp.loggamma(a)))
        assert abs(_log_sums([(*_one_block(a, b), 1.0)], ())[0][1] - want) <= 1e-14 * abs(want), b


def test_rank_sums_past_float_range_return_their_limit():
    # alpha log i overflows: the log of the sum is +inf or -inf, never nan,
    # on the direct, Euler-Maclaurin and split routes
    for a, b in ((2, 100), (10**6, 10**9), (1, 10**6)):
        assert log_rank_power_sum(a, b, 1e308) == math.inf
    for a, b in ((7, 100), (10**6, 10**9)):
        assert log_rank_power_sum(a, b, -1e308) == -math.inf
    # the first rank contributes 1^alpha = 1 whatever alpha is
    assert log_rank_power_sum(1, 100, -1e308) == 0.0
    assert oracle._lse([0.0, math.inf, -math.inf]) == math.inf


def test_smallest_nonempty_k_past_one_hundred():
    # a law near (sqrt 2 - 1, 2 - sqrt 2) with a narrow window: no k-type
    # is typical before k = 169; checked against the per-type definition
    p = LetterDistribution((0.41421356, 0.58578644))
    eps = 1e-5
    assert smallest_nonempty_k(p, eps) == 169
    typical = [
        k for k in range(1, 170)
        if any(is_typical_type(p, eps, l) for l in enumerate_types(k, 2))
    ]
    assert typical == [169]
    assert smallest_nonempty_k(p, eps, max_types=169) is None


def test_smallest_nonempty_k_derives_the_window_once(monkeypatch):
    # h(p) is computed once per scan, not once per scanned k
    from guesswork import entropy

    calls, entropy_of = [0], entropy.shannon_entropy

    def counted(l):
        calls[0] += 1
        return entropy_of(l)

    monkeypatch.setattr(entropy, "shannon_entropy", counted)
    assert smallest_nonempty_k((0.41421356, 0.58578644), 1e-5) == 169
    assert calls == [1]


def test_census_sandwich_check_raises(monkeypatch):
    # more types than the (k+1)^m lattice holds breaks the upper union bound;
    # the check is an explicit raise, so it also runs under python -O
    heavy = np.array([[1, 0]] * 5)
    monkeypatch.setattr(oracle, "_window_entries",
                        lambda p, window, k, cap: (heavy, [1] * 5, np.zeros(5)))
    with pytest.raises(ArithmeticError, match="sandwich"):
        typical_set_census(LetterDistribution((0.5, 0.5)), 0.1, 1)


FOUND_LAW = (0.31415926, 0.27182818, 0.24142136, 0.1725912)


def test_nonempty_scan_enumerates_only_the_typical_slab(monkeypatch):
    # each k's count matrix holds the candidate rows of the slab, not every k-type:
    # at most one row per prefix of the first m - 2 counts on average, against
    # 45,212,894 rows for every k-type of k = 1 .. 179
    rows, matrix = [], oracle.type_count_matrix

    def counted(*args, **kwargs):
        out = matrix(*args, **kwargs)
        rows.append(len(out))
        return out

    monkeypatch.setattr(oracle, "type_count_matrix", counted)
    assert smallest_nonempty_k(FOUND_LAW, 1e-12, max_types=10**6) is None
    assert len(rows) == oracle.nonempty_scan_limit(4, 10**6) == 179
    assert sum(num_types(k, 4) for k in range(1, 180)) == 45_212_894
    assert sum(rows) <= sum(num_types(k, 3) for k in range(1, 180)) == 988_259


@pytest.mark.parametrize("source", [C, U, conditioned(LetterDistribution((0.5, 0.3, 0.2)), 0.05)])
def test_typical_refusals_come_before_the_slab(source):
    # k < 1 is refused before any array is made, so no numpy warning escapes, and
    # the type-space cap counts every k-type, not the slab's candidates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DistributionError, match="k >= 1"):
            typical_set_census(source.p, source.epsilon, 0)
        with pytest.raises(DistributionError, match="k >= 1"):
            build_guess_table(source, 0)
    cap = num_types(40, source.p.m) - 1
    for call in (lambda: typical_set_census(source.p, source.epsilon, 40, max_types=cap),
                 lambda: build_guess_table(source, 40, max_types=cap)):
        with pytest.raises(TypeSpaceTooLargeError, match=f"{cap + 1} k-types"):
            call()


def _ulps(x, want, scale):
    # |x - want| in units in the last place of the float scale
    from mpmath import mpf

    return float(abs(mpf(x) - want) / mpf(math.ulp(float(scale))))


@pytest.mark.parametrize("source, k", [
    (U, 10), (U, 100), (U, 1000),
    (uniform_typical(LetterDistribution((0.5, 0.3, 0.2)), 0.05), 60),
    (uniform_typical(LetterDistribution((0.5, 0.3, 0.2)), 0.05), 300),
    (uniform_typical(LetterDistribution((0.4, 0.3, 0.2, 0.1)), 0.05), 40),
    (uniform_typical(LetterDistribution((0.4, 0.3, 0.2, 0.1)), 0.05), 120),
])
def test_uniform_table_is_one_rank_range(source, k):
    # every block of a uniform table has weight -log N, so the kernel sums ranks
    # 1 .. N as one range: log E[G] and log E[G^2] against the big-int closed
    # forms (N+1)/2 and (N+1)(2N+1)/6 within 4 ulp of the log, and log E log G
    # against mpmath's loggamma(N+1)/N within 4 ulp of log(N E log G) = log
    # sum_{i <= N} log i: it is that log less the float weight log N
    from mpmath import mp, mpf

    table = build_guess_table(source, k)
    n = table.total_words
    with direct_route_calls() as calls:
        (log_mean, log_square), log_mean_log = oracle._tables_log_sums([(table, 1.0)],
                                                                       (1.0, 2.0))[0]
    # one range, not one per type, and no rank summed one by one in the pass:
    # its ranks below 16 are one of the range sums held per tuple of alphas
    assert calls == []
    with mp.workdps(50):
        want_mean = mp.log(mpf(n + 1) / 2)
        want_square = mp.log(mpf((n + 1) * (2 * n + 1)) / 6)
        want_log = mp.log(mp.loggamma(n + 1) / n)
        assert _ulps(log_mean, want_mean, want_mean) <= 4
        assert _ulps(log_square, want_square, want_square) <= 4
        assert _ulps(log_mean_log, want_log, want_log + mp.log(n)) <= 4


@pytest.mark.parametrize("kind", ["unconditioned", "conditioned", "uniform"])
@pytest.mark.parametrize("k", [5, 12, 40, 120])
def test_equal_weight_blocks_sum_as_their_blocks(kind, k):
    # (0.5, 0.25, 0.25) ties letters 1 and 2 exactly, so runs of blocks share one
    # float weight; the kernel takes each run as one range, within 4 ulp of the
    # log of the sum of its blocks one by one (log E log G: of log(N E log G))
    p = LetterDistribution((0.5, 0.25, 0.25))
    source = {"unconditioned": unconditioned(p), "conditioned": conditioned(p, 0.3),
              "uniform": uniform_typical(p, 0.3)}[kind]
    table = build_guess_table(source, k)
    b, w = table.bounds, table.log_word_prob
    assert np.count_nonzero(w[1:] == w[:-1])  # some adjacent blocks tie
    alphas = (-0.5, 0.5, 1.0, 2.0)
    logs, log_mean_log = oracle._tables_log_sums([(table, 1.0)], alphas)[0]
    # each block alone, as a one-block table, then one log-sum-exp over the blocks
    alone = _log_sums([((b[j], b[j + 1]), oracle._int_parts((b[j + 1] - b[j],)),
                        w[j : j + 1], 1.0) for j in range(w.size)], alphas)
    for i, got in enumerate(logs):
        want = oracle._lse([one[0][i] for one in alone])
        assert _ulps(got, want, want) <= 4, (alphas[i], got, want)
    want = oracle._lse([one[1] for one in alone])
    assert _ulps(log_mean_log, want, want + math.log(table.total_words)) <= 4


def test_naive_crosscheck_agrees():
    assert naive_enumeration_crosscheck(W, 8)
    assert naive_enumeration_crosscheck(C, 10)
    assert naive_enumeration_crosscheck(U, 10)
    p3 = LetterDistribution((0.6, 0.3, 0.1))
    assert naive_enumeration_crosscheck(conditioned(p3, 0.2), 8)
    # a zero letter gives its words log-probability -inf; no numpy warning may escape
    zero_mid = LetterDistribution((0.6, 0.0, 0.4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert naive_enumeration_crosscheck(conditioned(zero_mid, 0.1), 9)
        assert naive_enumeration_crosscheck(uniform_typical(zero_mid, 0.1), 9)
        assert naive_enumeration_crosscheck(unconditioned(LetterDistribution((0.0, 0.7, 0.3))), 8)


@pytest.mark.parametrize("probs, eps, k", [((0.7, 0.3), 0.05, 20), ((0.6, 0.3, 0.1), 0.2, 12),
                                           ((0.4, 0.3, 0.2, 0.1), None, 9), ((0.7, 0.3), None, 20)])
def test_naive_crosscheck_holds_one_float_per_word(probs, eps, k):
    # the words are one array of 8 m^k bytes; beside them the naive side holds
    # chunks of max(4,096, m^k / 64) words, one buffer row per log and the
    # window's temporaries: 1.10x at binary k = 20 unconditioned (16 chunks),
    # 1.04-1.06x conditioned and 1.13x for m = 4 at k = 9. A word-sized scratch,
    # log-rank or window-mask array would read 2.1x and more
    p = LetterDistribution(probs)
    source = unconditioned(p) if eps is None else conditioned(p, eps)
    naive_enumeration_crosscheck(source, k)  # warm the imports and caches first
    tracemalloc.start()
    try:
        assert naive_enumeration_crosscheck(source, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * len(probs) ** k


CHUNKED = [(unconditioned((0.7, 0.3)), 10), (conditioned((0.7, 0.3), 0.1), 12),
           (uniform_typical((0.7, 0.3), 0.1), 12), (conditioned((0.6, 0.3, 0.1), 0.2), 6),
           (unconditioned((0.4, 0.3, 0.2, 0.1)), 5), (unconditioned((0.0, 0.7, 0.3)), 6),
           (conditioned((0.6, 0.0, 0.4), 0.1), 7), (uniform_typical((0.6, 0.0, 0.4), 0.1), 7)]


def _same_logs(got, want):
    return all(g == w or math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12)
               or (math.isnan(g) and math.isnan(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("chunk", [3, 64])
@pytest.mark.parametrize("source, k", CHUNKED)
def test_naive_oracle_is_the_same_over_any_chunks(monkeypatch, chunk, source, k):
    # chunk boundaries move the naive side's floats in their last bits alone
    alphas = (-0.999, 0.5, 300.0, 1e308)
    table = build_guess_table(source, k)
    sums = logs, log_log = oracle._tables_log_sums([(table, 1.0)], alphas)[0]
    shifted = [([*logs[:i], x + 1e-6, *logs[i + 1:]], log_log)
               for i, x in enumerate(logs) if math.isfinite(x)]
    shifted.append((logs, log_log + 1e-6))
    runs = []
    for words in (lambda n: n, lambda n: chunk):
        monkeypatch.setattr(oracle, "_chunk_words", words)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # -inf + inf at alpha = 1e308
            log_prob = oracle._naive_word_logs(source, k, 1 << 20)
            runs.append((log_prob, oracle._naive_log_means(log_prob, alphas),
                         oracle._crosscheck(table, alphas, sums, log_prob),
                         [oracle._crosscheck(table, alphas, s, log_prob) for s in shifted]))
    (whole, whole_means, whole_ok, whole_shifted), (got, means, ok, got_shifted) = runs
    assert got.size == whole.size == table.total_words
    assert _same_logs(got.tolist(), whole.tolist())
    assert _same_logs(means, whole_means)
    # the verdict sums the finite words alone, so a zero-probability word's
    # -inf + inf = nan at alpha = 1e308 is no false mismatch, one chunk or many
    assert ok and whole_ok
    assert not any(got_shifted) and not any(whole_shifted)


def test_zero_letter_at_huge_alpha_crosschecks_ok(capsys):
    # zero-probability words sort last and weigh nothing: the naive sums skip them, so
    # alpha log i overflowing to +inf meets no -inf log-probability (no nan, no warning)
    argv = ["exact-compare", "--kind", "unconditioned", "--p", "0,0.7,0.3", "--k", "6",
            "--alpha", "1e308", "--max-words", "1000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert "# crosscheck:k=6:ok" in out.splitlines() and err == ""
    source, alphas = unconditioned((0.0, 0.7, 0.3)), (300.0, 1e308)
    table = build_guess_table(source, 6)
    logs, log_log = oracle._tables_log_sums([(table, 1.0)], alphas)[0]
    log_prob = oracle._naive_word_logs(source, 6, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert naive_enumeration_crosscheck(source, 6, alphas=alphas, max_words=1000)
        assert not oracle._crosscheck(table, alphas, ([logs[0] + 1e-6, logs[1]], log_log),
                                      log_prob)
        assert not oracle._crosscheck(table, alphas, (logs, log_log + 1e-6), log_prob)


@pytest.mark.parametrize("words", [[0.0] * 7, [-1.0, -1.0, -1.0 - 1e-11, -2.0, -2.0, -math.inf],
                                   [-0.5, -1.5, -2.5, -3.5], [-3.0]])
def test_modal_count_by_binary_search(words):
    desc = np.array(words)
    floors = sorted({f for w in words for f in (w, w - 1e-10, w + 1e-10, w - 1.0, w + 1.0)})
    for floor in floors + [-math.inf, math.inf]:
        assert oracle._leading_count(desc, floor) == np.count_nonzero(desc >= floor), floor


def test_naive_crosscheck_word_space_guard():
    with pytest.raises(WordSpaceTooLargeError):
        naive_enumeration_crosscheck(W, 12, max_words=100)


def _lattice_projection(p, target, k, onto_argmax=True):
    """Push a simplex point onto the k-type lattice.

    Floors every frequency and parks the leftover counts on the most likely
    letter (for high-entropy targets) or the least likely one (low-entropy
    targets), so the rounding error moves the cost into the window, not out.
    """
    m = len(target)
    probs = list(p.probs)
    c = probs.index(max(probs)) if onto_argmax else probs.index(min(probs))
    counts = [math.floor(k * f) for f in target]
    counts[c] += k - sum(counts)
    return TypeVector.from_counts(counts, k)


def test_lattice_projection_stays_typical():
    # guaranteed once k exceeds -m log(min support prob) / (2 eps) = 16.1
    from guesswork import boundary_types

    bnd = boundary_types(P, EPS)
    for k in list(range(17, 81)) + [200, 1000]:
        lk = _lattice_projection(P, bnd.l_minus.freqs, k, onto_argmax=True)
        assert is_typical_type(P, EPS, lk), f"l- projection fell out at k={k}"
        pk = _lattice_projection(P, bnd.l_plus.freqs, k, onto_argmax=False)
        assert is_typical_type(P, EPS, pk), f"l+ projection fell out at k={k}"


def test_lattice_projection_entropy_converges():
    from guesswork import boundary_types

    bnd = boundary_types(P, EPS)
    h_minus = shannon_entropy(bnd.l_minus)
    errs = {
        k: abs(shannon_entropy(_lattice_projection(P, bnd.l_minus.freqs, k)) - h_minus)
        for k in (20, 200, 1000)
    }
    assert errs[1000] < errs[20]
    assert errs[1000] < 2e-3


def test_lattice_projection_surplus_direction_matters():
    # at k=10 the l+ surplus must go to the least likely letter; parking it
    # on the argmax overshoots the low window edge
    from guesswork import boundary_types

    bnd = boundary_types(P, EPS)
    good = _lattice_projection(P, bnd.l_plus.freqs, 10, onto_argmax=False)
    bad = _lattice_projection(P, bnd.l_plus.freqs, 10, onto_argmax=True)
    assert is_typical_type(P, EPS, good)
    assert not is_typical_type(P, EPS, bad)


def _hurwitz_zeta(s, a):
    """zeta(s, a) = sum_{i>=0} (i + a)^-s at mpmath's working precision.

    mpmath's own zeta below a = 1000; above it the Euler-Maclaurin
    asymptotic series of zeta(s, a), whose 15th term is below 1e-80 of the
    leading one there for these s (mpmath's zeta takes seconds or more per
    call at large a for s < 0).
    """
    from mpmath import bernoulli, factorial, mp, mpf, rf

    if a < 1000:
        return mp.zeta(s, a)
    a = mpf(a)
    total = a ** (1 - s) / (s - 1) + a ** (-s) / 2
    for j in range(1, 16):
        total += bernoulli(2 * j) / factorial(2 * j) * rf(s, 2 * j - 1) * a ** (-s - 2 * j + 1)
    return total


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5])
def test_rank_power_sums_match_hurwitz_zeta(alpha):
    # sum_{i=a}^{b} i^alpha = zeta(-alpha, a) - zeta(-alpha, b + 1), at 60 digits; these
    # alphas take the Euler-Maclaurin route from rank 10 or below, so the ranges cover the
    # one-rank blocks below it, the higher orders (from it to a few thousand), order 1
    # beyond, the ends either side of 4096 and of 30000, and b = 2^1100 their bigint path
    from mpmath import mp

    assert _first_ranks((alpha,))[0][0] <= 10
    for a in (1, 9, 10, 11, 4095, 4096, 29999, 30000, 10**6):
        ends = (9, 10, 11, 50, 4095, 4096, 4097, 29999, 30000, 30001, a + 65535, a + 65536, 10**15,
                2**200, 2**1100)
        for b in (b for b in ends if b >= a):
            with mp.workdps(60):
                want = float(mp.log(_hurwitz_zeta(-alpha, a) - _hurwitz_zeta(-alpha, b + 1)))
            assert abs(log_rank_power_sum(a, b, alpha) - want) <= 1e-12 * abs(want), (a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4096, 29999),
    st.one_of(st.integers(0, 2**16), st.sampled_from((10**6, 10**15, 2**200, 2**1100))),
    st.floats(-0.98, 3.98).filter(lambda alpha: abs(alpha) >= 1e-2),
)
def test_low_threshold_rank_sums_match_hurwitz_zeta(a, span, alpha):
    # ranges from rank 4,096 to below 30,000, which the one-threshold kernel summed
    # directly, take the Euler-Maclaurin form at every alpha the old low threshold
    # (4,096) admitted: within 1e-14 of the sum (of its log, where that passes 1)
    from mpmath import mp

    b = a + span
    with mp.workdps(60):
        want = float(mp.log(_hurwitz_zeta(-alpha, a) - _hurwitz_zeta(-alpha, b + 1)))
    assert abs(log_rank_power_sum(a, b, alpha) - want) <= 1e-14 * max(1.0, abs(want))


@contextlib.contextmanager
def direct_route_calls():
    # the ranks summed one by one in a kernel pass: ("direct", alphas, ranks) per
    # oracle._direct_route call for the ranks it is given (it sums at most that
    # many); the range sums below rank 16 are computed once per tuple of alphas
    calls = []
    direct = oracle._direct_route

    def counted_direct(a, n, alpha):
        calls.append(("direct", tuple(alpha.tolist()), sum(n)))
        return direct(a, n, alpha)

    with mock.patch.object(oracle, "_direct_route", counted_direct):
        yield calls


def test_direct_route_sums_only_ranks_below_the_threshold():
    # at the default alphas every row's first Euler-Maclaurin rank is at most 10,
    # below rank 16, under which every block takes one of the range sums held per
    # tuple of alphas: a table pass sums no rank one by one, and the 4,095 of a
    # fixed threshold are gone
    assert max(_first_ranks((a,))[0][0] for a in (-0.5, 0.5, 1.0, 2.0)) == 10 < _ONE_RANK_MAX == 16
    with direct_route_calls() as calls:
        finite_k_exponents(unconditioned((0.4, 0.3, 0.2, 0.1)), 60)
    assert calls == []


def test_default_alphas_sum_a_binary_table_below_the_low_threshold():
    # one pass serves every default alpha and the sum of logs of a table whose
    # ranks run far past 30000: ranks 1 .. 15 from the shared sums, the rest of
    # its first range and every other block by Euler-Maclaurin
    with direct_route_calls() as calls:
        finite_k_exponents(conditioned(LetterDistribution((0.7, 0.3)), 0.05), 600)
    assert calls == []


def test_tables_from_rank_one_sum_ranks_below_the_threshold_once(capsys):
    # every block below rank 16 takes one of the range sums S(a, n), 1 <= a <= n
    # <= 15, held per tuple of alphas, each within 1e-15 of mpmath's, or S'(a, 15),
    # S(a, 15) less the expansion's terms k = 2 .. M at Y = 15.5, where its rest
    # from 16, of order M there, carries the first term alone; a pass sums no rank
    # one by one, and a second exact-compare request prints the same bytes
    from mpmath import mp, mpf

    alphas = (-0.5, 0.5, 1.0, 2.0)
    ranks = _first_ranks(alphas)
    assert ranks[7].shape == (2, 5, 15 * 16)
    lam, rho = ranks[7].reshape(2, 5, 15, 16)
    orders = 1 + np.count_nonzero(ranks[6], axis=1)
    y = mpf(31) / 2
    with mp.workdps(40):
        for row, alpha in enumerate((*alphas, None)):
            if alpha is None:  # the sum of logs: f^(2k-1)(Y) = (2k-2)! / Y^(2k-1)
                terms = [mp.log(i) for i in range(1, 16)]
                slope = [mp.factorial(2 * k - 2) / y ** (2 * k - 1)
                         for k in range(2, orders[row] + 1)]
            else:
                terms = [mpf(i) ** alpha for i in range(1, 16)]
                slope = [mp.rf(alpha - 2 * k + 2, 2 * k - 1) * y ** (alpha - 2 * k + 1)
                         for k in range(2, orders[row] + 1)]
            cut = mp.fsum(mp.bernpoly(2 * k, mpf(1) / 2) / mp.factorial(2 * k) * f
                          for k, f in enumerate(slope, 2))
            for a in range(1, 16):
                for n in (*range(a, 16), 16):
                    total = mp.fsum(terms[a - 1 : min(n, 15)]) - (cut if n == 16 else 0)
                    got = rho[row, a - 1, n - 1]
                    if alpha is not None:
                        got += alpha * lam[row, a - 1, n - 1]
                    if total == 0:  # log 1 alone: the sum of logs' S(1, 1)
                        assert got == -math.inf
                    else:
                        assert abs(got - mp.log(total)) <= 1e-15, (row, a, n)
    argv = ["exact-compare", "--p", "0.7,0.3", "--epsilon", "0.05", "--k", "40,200,900"]
    with direct_route_calls() as calls:
        finite_k_exponents(conditioned(LetterDistribution((0.6, 0.4)), 0.1), 900)
        finite_k_exponents(uniform_typical(LetterDistribution((0.5, 0.3, 0.2)), 0.05), 300)
        assert calls == []
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
    assert calls == []
    assert capsys.readouterr().out == first


def _top_down_log_sum(a, b, alpha):
    """log sum_{i=a}^{b} i^alpha by mpmath at 50 digits, from the largest term until the
    rest is below 1e-40 of the sum; every term where alpha is near 0."""
    from mpmath import mp, mpf

    with mp.workdps(50):
        if abs(alpha) < 1:
            return mp.log(_hurwitz_zeta(-alpha, a) - _hurwitz_zeta(-alpha, b + 1))
        ranks = range(b, a - 1, -1) if alpha > 0 else range(a, b + 1)
        top, total = mpf(ranks[0]) ** alpha, mpf(0)
        for i in ranks:
            term = mpf(i) ** alpha
            total += term
            if term < top * mpf(10) ** -40 / (b - a + 1):
                break
        return mp.log(total)


@pytest.mark.parametrize("alpha, first_rank", [(1e5, 135833), (1e-8, _SMALL_ALPHA_MIN)])
def test_far_alphas_match_exact_sums(alpha, first_rank):
    # a huge alpha and one near 0 take the direct route below their first
    # Euler-Maclaurin rank: from its top terms at 1e5 (at most ~50 a block), on
    # every rank at 1e-8 (below 30,000); both within the stated bound
    # of an exact sum, the ranges either side of their first ranks
    assert _first_ranks((alpha,))[0][0] == first_rank
    with direct_route_calls() as calls:
        log_rank_power_sum(1, 10**6, alpha)
    assert calls == [("direct", (alpha,), first_rank - _ONE_RANK_MAX)]
    ranges = ((1, 10**6), (5000, 5000), (5000, 40000), (29000, 31000), (130000, 140000))
    for a, b in ranges:
        want = float(_top_down_log_sum(a, b, alpha))
        assert abs(log_rank_power_sum(a, b, alpha) - want) <= 1e-15 + 2.0**-50 * abs(want), (a, b)


def test_hurwitz_reference_agrees_with_mpmath_zeta():
    # the asymptotic branch of the reference against mpmath's own zeta where that is fast
    from mpmath import mp

    with mp.workdps(60):
        for s, a in ((0.5, 1500), (0.5, 10**6), (-0.5, 1500)):
            assert abs(_hurwitz_zeta(s, a) / mp.zeta(s, a) - 1) < mp.mpf(10) ** -55


def _exact_log_rank_sum(a, n, alpha):
    """log sum_{i=a}^{a+n-1} i^alpha for alpha in {0, 1, 2}, from the exact Python-int sum.

    An int past float range takes its log from its top 1000 bits, by bit
    length and shift.
    """
    total = {
        0: lambda: n,
        1: lambda: (2 * a + n - 1) * n // 2,
        2: lambda: n * a * (a + n - 1) + n * (n - 1) * (2 * n - 1) // 6,
    }[alpha]()
    shift = max(total.bit_length() - 1000, 0)
    return math.log(total >> shift) + shift * math.log(2.0)


def _within_1e15(got, want):
    # relative on the log, absolute where |log| < 1
    return abs(got - want) <= 1e-15 * max(1.0, abs(want))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 29999, 30000, 2**53, 2**1100)),
    st.one_of(st.integers(1, 65536), st.sampled_from((65537, 10**6, 2**200))),
    st.sampled_from((0, 1, 2)),
)
def test_integer_orders_match_exact_integer_sums(a, n, alpha):
    # alpha = 1 and 2 take the direct, split and Euler-Maclaurin routes of every
    # other order; the midpoint rule with its first correction is exact for them
    got = log_rank_power_sum(a, a + n - 1, float(alpha))
    assert _within_1e15(got, _exact_log_rank_sum(a, n, alpha)), (got, a, n, alpha)


@pytest.mark.parametrize("m, k", [(2, 1100), (3, 60), (4, 30)])
@pytest.mark.parametrize("make", [
    unconditioned, lambda p: conditioned(p, 0.1), lambda p: uniform_typical(p, 0.1),
], ids=["unconditioned", "conditioned", "uniform"])
def test_table_moments_of_integer_orders_match_exact_integer_sums(make, m, k):
    p = LetterDistribution({2: (0.7, 0.3), 3: (0.5, 0.3, 0.2), 4: (0.4, 0.3, 0.2, 0.1)}[m])
    source = make(p)
    table = build_guess_table(source, k)
    live = table.log_word_prob > -math.inf
    for alpha, scaled in finite_k_exponents(source, k, alphas=(1.0, 2.0)).moment_exponents:
        terms = [
            b.log_word_prob + _exact_log_rank_sum(b.start, b.count, int(alpha))
            for b in table.blocks
        ]
        want = oracle._lse(np.array(terms)[live])
        assert _within_1e15(k * scaled, want), (alpha, k * scaled, want)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_is_an_error(alpha):
    # the oracle refuses a non-finite order with the model's message, never nan
    match = f"^alpha must be finite, got {alpha}$"
    table = build_guess_table(C, 10)
    with pytest.raises(DistributionError, match=match):
        log_rank_power_sum(1, 10, alpha)
    with pytest.raises(DistributionError, match=match):
        exact_moment_log(table, alpha)
    with pytest.raises(DistributionError, match=match):
        finite_k_exponents(C, 20, alphas=(1.0, alpha, math.nan))


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_moment_sandwich_non_finite_alpha_is_an_error(alpha):
    # finiteness is checked before the alpha > -1 range, with the kernel's message
    with pytest.raises(DistributionError, match=f"^alpha must be finite, got {alpha}$"):
        moment_sandwich(C, 10, alpha)


def test_euler_maclaurin_route_stays_finite_for_huge_alpha():
    # alpha beyond the closed form's reach: no nan, the right sign of growth
    for alpha in (1e5, 1e9, -1e5, -1e9):
        for a, b in ((30000, 95536), (10**6, 10**9), (1, 10**6)):
            got = log_rank_power_sum(a, b, alpha)
            assert math.isfinite(got) and (got > 0.0) == (alpha > 0.0)


@pytest.mark.parametrize("call, error", [
    # eps = 0.001 leaves (0.8, 0.2) no typical word at k = 2: the naive side,
    # which enumerates first, refuses it
    (lambda: naive_enumeration_crosscheck(conditioned((0.8, 0.2), 0.001), 2),
     EmptyTypicalSetError),
], ids=["naive_empty_typical_set"])
def test_oracle_refusals(call, error):
    with pytest.raises(error):
        call()
