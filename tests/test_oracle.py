"""Exact finite-k oracles: guess tables, censuses, sandwiches, crosschecks."""

import math

import pytest

from guesswork import oracle
from guesswork import (
    ConvergencePoint,
    DistributionError,
    EmptyTypicalSetError,
    LetterDistribution,
    TypeVector,
    WordSpaceTooLargeError,
    build_guess_table,
    conditioned,
    convergence_series,
    exact_mean_log_guesswork,
    exact_moment,
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
    top_guess_prob,
    trend_holds,
    typical_set_census,
    unconditioned,
    uniform_typical,
)
from guesswork.oracle import _log_sum_of_logs

P = LetterDistribution((0.8, 0.2))
EPS = 0.1
W = unconditioned(P)
C = conditioned(P, EPS)
U = uniform_typical(P, EPS)


def test_guess_table_unconditioned_k2():
    table = build_guess_table(W, 2)
    assert table.total_words == 4
    assert table.log_typical_mass == 0.0
    got = [(b.type_vector.counts, b.count, b.start, math.exp(b.log_word_prob))
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
    assert exact_moment(build_guess_table(W, 1), 1.0) == pytest.approx(1.2, rel=1e-14)
    assert exact_moment(build_guess_table(W, 2), 1.0) == pytest.approx(1.6, rel=1e-14)


def test_uniform_table_k5():
    table = build_guess_table(U, 5)
    assert len(table.blocks) == 1
    blk = table.blocks[0]
    assert blk.count == 5 and blk.start == 1
    assert math.exp(blk.log_word_prob) == pytest.approx(0.2, rel=1e-12)
    assert exact_moment(table, 1.0) == pytest.approx(3.0, rel=1e-12)
    assert exact_moment(table, 2.0) == pytest.approx(11.0, rel=1e-12)
    assert exact_mean_log_guesswork(table) == pytest.approx(
        math.log(120.0) / 5.0, rel=1e-12
    )
    assert top_guess_prob(table) == pytest.approx(0.2, rel=1e-12)
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
    assert top_guess_prob(table) == pytest.approx(0.125, rel=1e-14)
    assert exact_moment(table, 1.0) == pytest.approx(4.5, rel=1e-14)
    # moments see through block boundaries: all ranks weighted equally
    direct = math.fsum(i**1.3 for i in range(1, 9)) / 8.0
    assert exact_moment(table, 1.3) == pytest.approx(direct, rel=1e-12)


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
            b = moment_sandwich(C, k, alpha, form="upper")
            assert b.holds
            assert b.lower <= b.value <= b.upper
        for alpha in (-0.5, 0.0):
            assert moment_sandwich(C, k, alpha, form="lower").holds


def test_moment_sandwich_validation():
    with pytest.raises(DistributionError):
        moment_sandwich(W, 6, 1.0)
    with pytest.raises(DistributionError):
        moment_sandwich(C, 6, -0.5, form="upper")
    with pytest.raises(DistributionError):
        moment_sandwich(C, 6, 1.0, form="lower")


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
    assert _log_sum_of_logs(a, a) == math.log(math.log(a))


def test_rank_sums_whose_range_ratio_leaves_float_range():
    # 2n/(2a-1) below the float range: a short range far out sums to n a^alpha
    a, n = 2**1100, 10**6
    for alpha in (-1.5, -0.5, 0.5, 1.7):
        want = math.log(n) + alpha * math.log(a)
        assert log_rank_power_sum(a, a + n - 1, alpha) == pytest.approx(want, rel=1e-14)
    assert _log_sum_of_logs(a, a + n - 1) == pytest.approx(
        math.log(n * math.log(a)), rel=1e-14
    )
    # and above it: sum_{i<=B} i^alpha ~ B^(alpha+1)/(alpha+1), sum log i ~ B (log B - 1)
    log_b = math.log(2**1100)
    for alpha in (-0.5, 0.5, 1.7):
        want = (alpha + 1.0) * log_b - math.log(alpha + 1.0)
        assert log_rank_power_sum(30000, 2**1100, alpha) == pytest.approx(want, rel=1e-14)
        assert log_rank_power_sum(1, 2**1100, alpha) == pytest.approx(want, rel=1e-14)
    assert _log_sum_of_logs(30000, 2**1100) == pytest.approx(
        log_b + math.log(log_b - 1.0), rel=1e-14
    )


def test_census_sandwich_check_raises(monkeypatch):
    # more types than the (k+1)^m lattice holds breaks the upper union bound;
    # the check is an explicit raise, so it also runs under python -O
    heavy = TypeVector.from_counts((1, 0))
    monkeypatch.setattr(oracle, "enumerate_types", lambda k, m, cap: iter([heavy] * 5))
    with pytest.raises(ArithmeticError, match="sandwich"):
        typical_set_census(LetterDistribution((0.5, 0.5)), 0.1, 1)

def test_naive_crosscheck_agrees():
    assert naive_enumeration_crosscheck(W, 8)
    assert naive_enumeration_crosscheck(C, 10)
    assert naive_enumeration_crosscheck(U, 10)
    p3 = LetterDistribution((0.6, 0.3, 0.1))
    assert naive_enumeration_crosscheck(conditioned(p3, 0.2), 8)


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
