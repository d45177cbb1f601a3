"""Randomized invariants: simplex closure, monotonicity, duality, exactness, Newton pass counts."""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import guesswork as gw
from guesswork.tilting import _BLOCK_CELLS, NEWTON_MAX_ITER, TiltedFamily

from laws import kl_divergence, renyi_rate, tilted_law, type_cost


def simplexes(m_min=2, m_max=4):
    return (
        st.integers(m_min, m_max)
        .flatmap(lambda m: st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        .map(lambda raw: tuple(v / math.fsum(raw) for v in raw))
    )


@settings(max_examples=60, deadline=None)
@given(simplexes(), st.floats(0.01, 20.0))
def test_tilted_type_stays_on_simplex(p, beta):
    t = gw.tilted_type(p, 1.0 / beta - 1.0)
    assert abs(math.fsum(t.freqs) - 1.0) < 1e-9
    assert all(f >= 0.0 for f in t.freqs)
    assert 0.0 <= gw.shannon_entropy(t) <= math.log(len(p)) + 1e-12
    assert t.freqs == pytest.approx(tilted_law(p, beta), rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(simplexes(), st.floats(-0.9, 8.0), st.floats(0.01, 2.0))
def test_tilted_cross_entropy_monotone(p, alpha, step):
    lo = gw.cross_entropy(gw.tilted_type(p, alpha), p)
    assert lo <= gw.cross_entropy(gw.tilted_type(p, alpha + step), p) + 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda m: st.tuples(
            st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m),
            st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m),
        )
    )
)
def test_kl_nonnegative_and_decomposition(pair):
    raw_l, raw_p = pair
    l = tuple(v / math.fsum(raw_l) for v in raw_l)
    p = tuple(v / math.fsum(raw_p) for v in raw_p)
    d = kl_divergence(l, p)
    assert d >= 0.0
    assert abs(gw.cross_entropy(l, p) - gw.shannon_entropy(l) - d) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(0.55, 0.95), st.floats(0.1, 0.9), st.floats(-0.9, 4.0), st.floats(0.0, 0.69))
def test_weak_duality(p0, frac, alpha, x):
    # Lambda*(x) >= x alpha - Lambda(alpha) for every pair in range
    eps = frac * gw.admissible_epsilon_interval((p0, 1.0 - p0))[1]
    source = gw.conditioned(gw.LetterDistribution((p0, 1.0 - p0)), eps)
    model = gw.scgf_model(source)
    rate = gw.legendre_transform(model, x)
    if math.isinf(rate):
        return
    assert rate >= x * alpha - model(alpha) - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.55, 0.95), st.floats(0.1, 0.9), st.floats(-0.9, 3.0), st.floats(0.05, 1.5))
def test_scgf_midpoint_convex(p0, frac, a, width):
    eps = frac * gw.admissible_epsilon_interval((p0, 1.0 - p0))[1]
    model = gw.scgf_model(gw.conditioned(gw.LetterDistribution((p0, 1.0 - p0)), eps))
    b = a + width
    assert model(0.5 * (a + b)) <= 0.5 * (model(a) + model(b)) + 1e-10


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 2000),
    st.integers(0, 3000),
    st.floats(-2.5, 2.5),
)
def test_log_rank_power_sum_matches_direct(a, span, alpha):
    b = a + span
    direct = math.log(math.fsum(float(i) ** alpha for i in range(a, b + 1)))
    assert abs(gw.log_rank_power_sum(a, b, alpha) - direct) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(0.55, 0.9), st.integers(4, 9), st.floats(0.3, 0.9))
def test_guess_table_normalized(p0, k, frac):
    p = gw.LetterDistribution((p0, 1.0 - p0))
    eps = frac * gw.admissible_epsilon_interval((p0, 1.0 - p0))[1]
    if gw.typical_set_census(p, eps, k).is_empty:
        return
    for source in (gw.conditioned(p, eps), gw.uniform_typical(p, eps)):
        table = gw.build_guess_table(source, k)
        mass = math.fsum(
            blk.count * math.exp(blk.log_word_prob) for blk in table.blocks
        )
        assert abs(mass - 1.0) < 1e-9
        # ranks tile 1..total with no gaps
        assert table.blocks[0].start == 1
        assert table.blocks[-1].end == table.total_words


def _golden_section_max(f, lo, hi, iters=160):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv * (hi - lo), lo + inv * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - inv * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv * (hi - lo)
            fd = f(d)
    return max(fc, fd)


@settings(max_examples=60, deadline=None)
@given(
    simplexes(2, 5),
    st.floats(0.05, 0.95),
    st.lists(st.floats(0.02, 0.98), min_size=1, max_size=4),
    st.sampled_from(("unconditioned", "conditioned")),
)
def test_legendre_transform_interior(p, frac, us, kind):
    eps = frac * gw.admissible_epsilon_interval(p)[1]
    assume(eps > 1e-6)
    source = gw.unconditioned(p) if kind == "unconditioned" else gw.conditioned(p, eps)
    model = gw.scgf_model(source)
    assume(model.max_slope - model.plateau_width > 1e-6)
    xs = [model.plateau_width + u * (model.max_slope - model.plateau_width) for u in us]
    rates = gw.legendre_transform(model, np.array(xs))  # one array call for every x

    for x, rate in zip(xs, rates):
        # Lambda*(x) = D(l_beta || p) at h(l_beta) = x: bisection on log beta over
        # validated tilted types, independent of the float-only family
        lo, hi = -30.0, 30.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gw.shannon_entropy(tilted_law(p, math.exp(mid))) > x:
                lo = mid
            else:
                hi = mid
        l = tilted_law(p, math.exp(0.5 * (lo + hi)))
        assert abs(rate - kl_divergence(l, p)) < 1e-10

        # and it is the supremum of x alpha - Lambda(alpha), alpha = 1/beta - 1
        def dual(log_beta):
            alpha = math.exp(-log_beta) - 1.0
            return x * alpha - model(alpha)

        assert abs(rate - _golden_section_max(dual, -30.0, 30.0)) < 1e-10


def laws_with_a_zero(m_min=2, m_max=5):
    """Letter laws on m letters; about half of them give one letter probability 0."""
    return (
        st.integers(m_min, m_max)
        .flatmap(lambda m: st.tuples(
            st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m),
            st.one_of(st.none(), st.integers(0, m - 1)),
        ))
        .map(lambda drawn: [0.0 if a == drawn[1] else v for a, v in enumerate(drawn[0])])
        .map(lambda raw: gw.LetterDistribution(tuple(v / math.fsum(raw) for v in raw)))
    )


def _close(x, y, rel):
    return x == y or abs(x - y) <= rel * max(abs(x), abs(y))


@settings(max_examples=40, deadline=None)
@given(
    laws_with_a_zero(),
    st.floats(0.005, 0.6),
    st.integers(1, 30),
    st.sampled_from(("unconditioned", "conditioned", "uniform")),
)
def test_array_pass_matches_per_type_definition(p, eps, k, kind):
    from guesswork import oracle

    k = min(k, 20) if p.m == 5 else k
    source = {
        "unconditioned": lambda: gw.unconditioned(p),
        "conditioned": lambda: gw.conditioned(p, eps),
        "uniform": lambda: gw.uniform_typical(p, eps),
    }[kind]()
    window = None if kind == "unconditioned" else gw.typical_window(p, eps)
    # the per-type definition, one validated TypeVector at a time
    want = [
        (l.counts, gw.type_count(l), -k * gw.cross_entropy(l, p))
        for l in gw.enumerate_types(k, p.m)
        if window is None or gw.is_typical_type(p, eps, l)
    ]
    counts, sizes, raw = oracle._window_entries(p, window, k, gw.entropy.MAX_TYPES_DEFAULT)
    rows = list(map(tuple, counts.tolist()))
    assert rows == [c for c, _, _ in want]
    assert sizes == [n for _, n, _ in want]
    assert all(_close(r, w, 1e-12) for r, (_, _, w) in zip(raw.tolist(), want))
    # and against an independent fsum cost: the per-type definition above runs
    # the same cost and window code as the array pass
    assert all(_close(r, -k * type_cost(c, k, p), 1e-12) for r, c in zip(raw.tolist(), rows))
    if window is not None:
        h = -math.fsum(q * math.log(q) for q in p.probs if q > 0.0)
        edges = (h - eps - gw.entropy.WINDOW_SLACK, h + eps + gw.entropy.WINDOW_SLACK)
        kept = set(rows)
        for c in map(tuple, gw.type_count_matrix(k, p.m).tolist()):
            cost = type_cost(c, k, p)
            if all(abs(cost - e) > 1e-13 for e in edges):
                assert (c in kept) == (edges[0] <= cost <= edges[1]), (c, cost, edges)
        census = gw.typical_set_census(p, eps, k)
        assert census.counts.tolist() == counts.tolist()
        assert census.cardinality == sum(sizes)
    if not want:
        with pytest.raises(gw.EmptyTypicalSetError):
            gw.build_guess_table(source, k)
        return
    table = gw.build_guess_table(source, k)
    # by the source's own per-word probability, ties in count order: under the
    # uniform law every class ties
    ordered = sorted(want, key=lambda e: (0.0 if kind == "uniform" else -e[2], e[0]))
    assert [b.counts for b in table.blocks] == [c for c, _, _ in ordered]
    assert [b.count for b in table.blocks] == [n for _, n, _ in ordered]
    assert [b.counts for b in table.blocks[:3]] == [c for c, _, _ in ordered[:3]]
    total = sum(sizes)
    for b, (_, _, w) in zip(table.blocks, ordered):
        if kind == "uniform":
            assert b.log_word_prob == -math.log(total)
        else:
            assert _close(b.log_word_prob + table.log_typical_mass, w, 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((1, 9, 10, 11, 4095, 4096, 29999, 30000, 10**6, 2**53 - 40000, 2**53,
                     2**1100)),
    st.integers(0, 2**16 - 1),
    st.floats(-3.0, 3.0).filter(lambda a: a != 0.0),
)
# one-rank ranges near alpha = 0, once 1.6e-6 relative off alpha log a and a
# negative log at 10^6 on the Euler-Maclaurin route
@example(30000, 0, 4.301924693685763e-71)
@example(30000, 0, 4.870092411728828e-25)
@example(10**6, 0, 1e-300)
def test_direct_rank_sums_match_fsum(a, span, alpha):
    from guesswork.oracle import _log_sums, _one_block

    b = a + span
    logs = [math.log(i) for i in range(a, b + 1)]
    top = max(alpha * x for x in logs)
    want = top + math.log(math.fsum(math.exp(alpha * x - top) for x in logs))
    assert _close(gw.log_rank_power_sum(a, b, alpha), want, 1e-13)
    want_logs = math.log(math.fsum(logs)) if b > 1 else -math.inf
    assert _close(_log_sums([(*_one_block(a, b), 1.0)], ())[0][1], want_logs, 1e-13)


@settings(max_examples=100, deadline=None)
@given(
    laws_with_a_zero(),
    st.floats(-1.0, 5.0, exclude_min=True).filter(lambda a: a != 0.0),
)
def test_unconditioned_scgf_is_scaled_renyi_rate(p, alpha):
    # Arikan's identity: Lambda(alpha) = alpha H_{1/(1+alpha)}(p) for i.i.d. letters
    want = alpha * renyi_rate(p, 1.0 / (1.0 + alpha))
    assert abs(gw.scgf_model(gw.unconditioned(p))(alpha) - want) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(laws_with_a_zero(), st.floats(0.02, 0.98),
       st.sampled_from((gw.unconditioned, gw.conditioned, gw.uniform_typical)))
@example(gw.LetterDistribution((0.495645666183775, 0.36770507669574753, 0.1366492571204775)),
         0.5, gw.unconditioned)
def test_scgf_vanishes_at_zero(p, frac, kind):
    # Lambda(0) = lim (1/k) log E[G^0] = 0 exactly, for every kind, with no
    # -D(p || p) rounding residual (the pinned law gave -8.5e-17 unconditioned)
    eps = frac * gw.admissible_epsilon_interval(p)[1]
    assume(eps > 1e-9)
    source = kind(p) if kind is gw.unconditioned else kind(p, eps)
    assert gw.scgf_model(source)(0.0) == 0.0


def _per_block_log_sums(table, alpha):
    """log E[G^alpha] (log E[log G] for alpha None) by one per-range call per block."""
    from guesswork.oracle import _lse
    from guesswork.oracle import _log_sums, _one_block

    terms = [
        b.log_word_prob
        + (_log_sums([(*_one_block(b.start, b.end), 1.0)], ())[0][1] if alpha is None
           else gw.log_rank_power_sum(b.start, b.end, alpha))
        for b in table.blocks if b.log_word_prob > -math.inf
    ]
    return _lse(terms)


def _near(x, y, rel):
    # relative, with an absolute floor of rel for logs near 0 (E[G^0] = 1)
    return x == y or abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _check_kernel_against_blocks(table, alphas):
    # the one exact column: bounds from rank 1, strictly rising, one past the last rank
    bounds = table.bounds
    assert len(bounds) == len(table.counts) + 1
    assert bounds[0] == 1 and bounds[-1] == table.total_words + 1
    assert all(x < y for x, y in zip(bounds, bounds[1:]))
    cols = zip(table.counts.tolist(), bounds, bounds[1:], table.log_word_prob.tolist())
    assert [(b.counts, b.count, b.start, b.end, b.log_word_prob) for b in table.blocks] == [
        (tuple(c), y - x, x, y - 1, w) for c, x, y, w in cols
    ]
    top = table.blocks[0].log_word_prob
    assert gw.modal_word_count(table) == sum(
        b.count for b in table.blocks if b.log_word_prob >= top - gw.oracle.RANK_TIE_TOL
    )
    k = table.k
    exps = gw.finite_k_exponents(table.source, k, alphas=alphas)
    for alpha, scaled in exps.moment_exponents:
        want = _per_block_log_sums(table, alpha)
        assert _near(gw.exact_moment_log(table, alpha), want, 1e-12), alpha
        assert _near(k * scaled, want, 1e-12), alpha
    want = _per_block_log_sums(table, None)
    mean_log = gw.exact_mean_log_guesswork(table)
    assert _near(math.log(mean_log) if mean_log else -math.inf, want, 1e-12)
    assert _near(k * exps.mean_log_exponent, mean_log, 1e-12)


def _check_size_parts(table):
    """The table's stored size parts against a fresh conversion, and the kernel over them."""
    from guesswork.oracle import _int_parts, _log_sums, _one_block

    bounds = table.bounds
    sizes = [y - x for x, y in zip(bounds, bounds[1:])]
    mant, exp = table.size_parts
    want_m, want_e = _int_parts(sizes)
    assert (mant.tobytes(), exp.tobytes()) == (want_m.tobytes(), want_e.tobytes())
    assert not any(a.flags.writeable for a in (mant, exp))
    alphas = (-0.5, 0.0, 1.0, 2.5)
    # the live blocks are a prefix; the whole-table pass against that prefix
    # with its parts taken afresh
    live = np.flatnonzero(table.log_word_prob > -math.inf).tolist()
    n = len(live)
    assert live == list(range(n))
    fresh = _log_sums([(bounds[: n + 1], _int_parts(sizes[:n]), table.log_word_prob[:n], 1.0)],
                      alphas)[0]
    assert _log_sums([(bounds, table.size_parts, table.log_word_prob, 1.0)], alphas)[0] == fresh
    # each block's slice of the parts against the single-range route, at the
    # alphas the kernel is sent: its callers keep alpha = 0 to themselves
    powers = [alpha for alpha in alphas if alpha != 0.0]
    for j, (a, c) in enumerate(zip(bounds, bounds[1:])):
        got, got_logs = _log_sums([((a, c), (mant[j : j + 1], exp[j : j + 1]), [0.0], 1.0)],
                                  powers)[0]
        assert got == [gw.log_rank_power_sum(a, c - 1, alpha) for alpha in powers], j
        assert got_logs == _log_sums([(*_one_block(a, c - 1), 1.0)], ())[0][1], j


@settings(max_examples=25, deadline=None)
@given(
    laws_with_a_zero(2, 4),
    st.floats(0.02, 0.6),
    st.integers(1, 120),
    st.sampled_from(("unconditioned", "conditioned", "uniform")),
    st.lists(st.sampled_from((-0.7, -0.5, 0.0, 0.3, 1.0, 1.5, 2.0, 3.7)), min_size=1,
             max_size=3),
)
def test_table_kernel_matches_per_range_sums(p, eps, k, kind, alphas):
    # one kernel pass per table against one log_rank_power_sum / one-block _log_sums
    # call per block: routes, chunking and the 1/k scaling must not move the sum
    k = min(k, {2: 120, 3: 16, 4: 8}[p.m])
    source = {
        "unconditioned": lambda: gw.unconditioned(p),
        "conditioned": lambda: gw.conditioned(p, eps),
        "uniform": lambda: gw.uniform_typical(p, eps),
    }[kind]()
    try:
        table = gw.build_guess_table(source, k)
    except gw.EmptyTypicalSetError:
        return
    _check_kernel_against_blocks(table, tuple(alphas))
    _check_size_parts(table)


@pytest.mark.parametrize("k", [1100, 1200])
@pytest.mark.parametrize("kind", ["unconditioned", "conditioned", "uniform"])
def test_table_kernel_on_ranks_past_float_range(kind, k):
    # binary tables whose ranks pass 2^1000: the bigint log path of the kernel
    p = gw.LetterDistribution((0.7, 0.3))
    source = {
        "unconditioned": lambda: gw.unconditioned(p),
        "conditioned": lambda: gw.conditioned(p, 0.1),
        "uniform": lambda: gw.uniform_typical(p, 0.1),
    }[kind]()
    table = gw.build_guess_table(source, k)
    assert table.total_words.bit_length() > 1000
    _check_kernel_against_blocks(table, (-0.5, 1.5, 2.0))


@pytest.mark.parametrize("p, k, case", [
    ((0.7, 0.3), 1100, "past_float_bits"),
    ((0.7, 0.3), 20, "straddles_em_min"),
    ((0.4, 0.0, 0.3, 0.2, 0.1), 8, "zero_letter"),
    ((0.7, 0.3), 13, "straddles_em_low"),
])
def test_table_size_parts_on_each_kernel_path(p, k, case):
    # straddles_em_min: a block straddles the first Euler-Maclaurin rank of the
    # alphas near 0 (30,000), where the kernel cuts it; straddles_em_low: one
    # straddles the rank from which the default alphas take order 1
    from guesswork.oracle import _FLOAT_BITS, _SMALL_ALPHA_MIN, _first_ranks

    table = gw.build_guess_table(gw.unconditioned(gw.LetterDistribution(p)), k)
    if case == "past_float_bits":
        assert table.total_words.bit_length() > _FLOAT_BITS
    elif case.startswith("straddles"):
        edge = _SMALL_ALPHA_MIN if case == "straddles_em_min" else _first_ranks((-0.5, 0.5, 1.0, 2.0))[1]
        assert any(a < edge < c for a, c in zip(table.bounds, table.bounds[1:]))
    else:  # the live-block filter drops the rows of probability 0, after live ranks past 30,000
        live = int(np.count_nonzero(table.log_word_prob > -math.inf))
        assert live < len(table.counts) and table.bounds[live] > _SMALL_ALPHA_MIN
    _check_size_parts(table)


def _near_bits(c):
    # ints within 2^970 of 2^c: either side of the float path's edge
    return st.integers(2**c - 2**970, 2**c + 2**970)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 2**64), _near_bits(1020), _near_bits(1024),
                          st.sampled_from((2**1020 - 1, 2**1020, 2**1024 - 1, 2**1024))),
                max_size=8))
@example([2**1020 - 1])  # 1020 bits, so the float path, though it rounds up to 2^1020
@example([3, 2**1020 - 1, 2**1020])
@example([2**1024 - 1, 5])
@example([])
def test_int_parts_match_the_per_int_rule(values):
    # one numpy pass or one rule per int, every value gets the per-int parts:
    # float(v) up to _FLOAT_BITS bits, else its top 64 bits over 2^64 and its bit length
    from guesswork.oracle import _FLOAT_BITS, _int_parts

    def one(v):
        n = v.bit_length()
        return (float(v), 0) if n <= _FLOAT_BITS else (float(v >> (n - 64)) / 2.0**64, n)

    mant, exp = _int_parts(values)
    assert (mant.dtype, exp.dtype) == (np.float64, np.int64)
    assert list(zip(mant.tolist(), exp.tolist())) == [one(v) for v in values]
    logs = np.log(mant) + exp * math.log(2.0)
    assert all(abs(x - math.log(v)) <= 4e-16 * math.log(v) for x, v in zip(logs.tolist(), values))


# adjacent rows that step in the last two counts, one more of the next-to-last
# letter and one fewer of the last, yet differ in two of the first three letters
# (each pair of them once), so each starts a new run; the third row continues the
# second's run
RUNS_SPLIT_BY_AN_EARLIER_LETTER = np.array(
    [[3, 1, 0, 1, 2], [2, 2, 0, 2, 1], [2, 2, 0, 3, 0], [2, 1, 1, 0, 3], [2, 0, 2, 1, 2],
     [1, 0, 3, 2, 1]], dtype=np.uint8)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 40), st.data())
@example(5, 7, None)
def test_class_sizes_are_multinomials(m, k, data):
    # the run recurrence against the multinomial, row by row, on every row, on
    # a random subset of rows, on the typical slab's shape (one interval of the
    # next-to-last count per run: empty, one row, from 0, to r, whole), and on a
    # hand-built matrix whose steps in the last two counts cross a change in an
    # earlier letter
    from guesswork import entropy, oracle

    if data is None:
        counts = RUNS_SPLIT_BY_AN_EARLIER_LETTER
        subsets = [counts, counts[1:], counts[::2]]
    else:
        k = min(k, {2: 40, 3: 40, 4: 20, 5: 12, 6: 8}[m])
        counts = entropy.type_count_matrix(k, m)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(counts),
                                           max_size=len(counts))), dtype=bool)
        # a short list of interval ends, cycled over the runs and cut to 0..r
        ends = np.array(data.draw(st.lists(st.tuples(st.integers(0, k), st.integers(-1, k)),
                                           min_size=1, max_size=8)), dtype=np.int64)

        def last(cols, rest):
            lo, hi = np.resize(ends, (len(rest), 2)).T
            return np.minimum(lo, rest), np.minimum(hi, rest)

        subsets = [counts, counts[keep], entropy.type_count_matrix(k, m, last=last)]
    for rows in subsets:
        assert oracle._class_sizes(rows) == [entropy.multinomial(r) for r in rows.tolist()]


@st.composite
def slab_cases(draw):
    """(p, epsilon, k): m = 2-5 letters, maybe a zero letter anywhere, the last two
    letters maybe tied exactly or within a relative 1e-15, 1e-12 or 1e-9, and
    epsilon either log-uniform from 1e-12 to near the admissible maximum or
    put so that one drawn type lies within 2 WINDOW_SLACK of a window edge."""
    from guesswork import entropy

    m = draw(st.integers(2, 5))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    tie = draw(st.sampled_from((None, 0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9)))
    if tie is not None:
        raw[-1] = raw[-2] * (1.0 + tie)
    zero = draw(st.one_of(st.none(), st.integers(0, m - 1)))
    if zero is not None:
        raw[zero] = 0.0
    p = gw.LetterDistribution(tuple(v / math.fsum(raw) for v in raw))
    k = draw(st.integers(1, {2: 1000, 3: 150, 4: 40, 5: 18}[m]))
    if draw(st.booleans()):
        top = gw.admissible_epsilon_interval(p)[1]
        top = top if math.isfinite(top) and top > 1e-11 else 1.0
        return p, 10.0 ** draw(st.floats(-12.0, math.log10(0.999 * top))), k
    counts = entropy.type_count_matrix(k, m)
    cost = entropy._cross_entropies(counts, k, p)
    cost = cost[np.isfinite(cost)]
    assume(cost.size)
    edge = float(cost[draw(st.integers(0, cost.size - 1))])
    off = draw(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)))
    eps = abs(edge - gw.shannon_entropy(p)) + off * entropy.WINDOW_SLACK
    assume(eps > 0.0)
    return p, eps, k


@settings(max_examples=150, deadline=None)
@given(slab_cases())
@example((gw.LetterDistribution((0.31415926, 0.27182818, 0.24142136, 0.1725912)), 1e-12, 389))
@example((gw.LetterDistribution((0.5, 0.25, 0.25)), 0.3, 40))
@example((gw.LetterDistribution((0.5, 0.5 - 1e-15, 1e-15)), 0.01, 60))
@example((gw.LetterDistribution((0.6, 0.0, 0.4)), 0.1, 30))
@example((gw.LetterDistribution((0.6, 0.4, 0.0)), 0.1, 30))
def test_slab_rows_are_the_masked_full_enumeration(case):
    # the typical slab's rows against type_count_matrix + _in_window over the
    # whole matrix: the same counts in the same order, the same exact sizes
    # and the same log-probabilities, bit for bit
    from guesswork import entropy, oracle

    p, eps, k = case
    window = gw.typical_window(p, eps)
    full = entropy.type_count_matrix(k, p.m)
    cost = entropy._cross_entropies(full, k, p)
    keep = entropy._in_window(cost, window)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, sizes, raw = oracle._window_entries(p, window, k, gw.entropy.MAX_TYPES_DEFAULT)
    assert counts.dtype == full.dtype
    assert counts.tolist() == full[keep].tolist()
    assert sizes == [entropy.multinomial(r) for r in full[keep].tolist()]
    assert raw.tobytes() == (-k * cost[keep]).tobytes()


@settings(max_examples=100, deadline=None)
@given(laws_with_a_zero(), st.floats(0.02, 0.98), st.booleans())
def test_scgf_model_edges_match_boundary_types(p, frac, clamped):
    # the model's clamp window and edge lines against the validated TypeVector
    # functionals of boundary_types' l- and l+: bit for bit at a solved edge;
    # at a limit of the family (eps past the admissible interval) the line is
    # (log n, log n - c), within one ulp of log n and of c
    top = gw.admissible_epsilon_interval(p)[1]
    assume(top > 1e-9)
    eps = top * (1.0 + 4.0 * frac) if clamped else top * frac
    model = gw.scgf_model(gw.conditioned(p, eps))
    bnd = gw.boundary_types(p, eps)
    betas = (bnd.beta_minus, bnd.beta_plus)
    limits = (0.0, math.inf)
    assert model.window == tuple(lim if b is None else b for b, lim in zip(betas, limits))
    for (h, icpt), l, beta in zip(model.edge_lines, (bnd.l_minus, bnd.l_plus), betas):
        want = (gw.shannon_entropy(l), -kl_divergence(l, p))
        if beta is not None:
            assert (h, icpt) == want
        else:
            assert abs(h - want[0]) <= math.ulp(h)
            assert abs(icpt - want[1]) <= math.ulp(h) + math.ulp(h - icpt)
    uniform = gw.scgf_model(gw.uniform_typical(p, eps))
    assert uniform.window == (model.window[0],) * 2
    assert uniform.edge_lines == ((model.max_slope, 0.0),) * 2
    if not clamped:
        assert None not in betas


@settings(max_examples=150, deadline=None)
@given(laws_with_a_zero(), st.floats(0.02, 0.98), st.booleans(),
       st.floats(-1.0, 50.0, exclude_min=True))
def test_clamped_optimum_matches_the_scgf_model(p, frac, clamped, alpha):
    # clamped_optimum and the conditioned model share one clamp rule: the
    # optimiser clamps exactly when the model's tangent line at alpha is the
    # edge line of a solved window end, its type's entropy is the model's
    # slope, and the breakpoints are 1/beta - 1 at the solved ends
    top = gw.admissible_epsilon_interval(p)[1]
    assume(top > 1e-9)
    eps = top * (1.0 + 4.0 * frac) if clamped else top * frac
    model = gw.scgf_model(gw.conditioned(p, eps))
    opt = gw.clamped_optimum(p, eps, alpha)
    slope = model.slope(alpha)
    beta_lo, beta_hi = model.window
    solved = (beta_lo > 0.0, beta_hi < math.inf)
    clamps = (gw.Regime.UPPER_CLAMP, gw.Regime.LOWER_CLAMP)
    for end, (h, icpt) in enumerate(model.edge_lines):
        on_edge = (slope, model(alpha)) == (h, h * alpha + icpt)
        assert (opt.regime is clamps[end]) == (solved[end] and on_edge)
    assert abs(gw.shannon_entropy(opt.type_vector) - slope) <= 1e-12
    want = tuple(1.0 / beta - 1.0 if ok else None
                 for beta, ok in ((beta_hi, solved[1]), (beta_lo, solved[0])))
    assert model.breakpoints == want


@settings(max_examples=200, deadline=None)
@given(laws_with_a_zero(), st.floats(0.02, 0.98),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_one_newton_loop_solves_edges_and_entropy_targets(p, frac, us):
    # window's one loop call gives the one-edge tilts bit for bit, every solved
    # edge sits on its cross-entropy target, and every interior entropy
    # target passed to solve is met
    from guesswork.tilting import TiltedFamily

    top = gw.admissible_epsilon_interval(p)[1]
    assume(top > 1e-9)
    family = TiltedFamily(p)
    lo, hi = gw.typical_window(p, frac * top)
    window = family.window(lo, hi)
    assert 0.0 < window[0] and window[1] < math.inf  # eps admissible: both edges solved
    assert window == (gw.solve_cross_entropy(p, hi), gw.solve_cross_entropy(p, lo))
    lines = [family.line(beta) for beta in window]
    for (h, intercept), eta in zip(lines, (hi, lo)):
        assert abs(h - intercept - eta) <= 1e-12  # eta = h + D
    (h_minus, _), (h_plus, _) = lines
    xs = np.array([h_plus + u * (h_minus - h_plus) for u in us])
    _, h, _ = family.solve((), xs)[1]
    assert np.all(np.abs(h - xs) <= 1e-12)


@contextlib.contextmanager
def entropy_solves():
    # each TiltedFamily.solve call made inside the block, as (its entropy
    # targets, h(l_beta) reached, moment passes including the final one):
    # the passes are counted by wrapping _moments, as _count_tilting_work does
    solves, passes = [], [0]
    solve, moments = TiltedFamily.solve, TiltedFamily._moments

    def counted_solve(self, windows, hs=()):
        passes[0] = 0
        clamps, (beta, h, eta) = solve(self, windows, hs)
        solves.append((np.asarray(hs), h, passes[0]))
        return clamps, (beta, h, eta)

    def counted_moments(self, beta):
        passes[0] += 1
        return moments(self, beta)

    with mock.patch.object(TiltedFamily, "solve", counted_solve), \
            mock.patch.object(TiltedFamily, "_moments", counted_moments):
        yield solves


# laws on which a converged Newton step rounded back onto its beta, a bracket
# end, and was sent to bisection: the loop then spent about 40 passes on it
TAIL_M5 = (0.1163543058712265, 0.1159804679254267, 0.5587950022721473,
           0.18478347444153373, 0.02408674948966588)
TAIL_M4 = (0.0, 0.2278546170506192, 0.041050483805394195, 0.7310948991439865)


@pytest.mark.parametrize("p", [TAIL_M5, TAIL_M4], ids=["m5", "m4_zero_letter"])
def test_fig2_interior_ends_each_target_on_its_converged_step(p):
    # the 400-point fig2 interior of the unconditioned law: 42 (m = 5) and
    # 53 (m = 4) passes while converged targets were bisected away, 12 each
    # from beta = 1, 6 and 5 from the grid's brackets
    model = gw.scgf_model(gw.unconditioned(p))
    with entropy_solves() as solves:
        gw.legendre_transform(model, np.linspace(0.0, math.log(len(p)), 400))
    [(x, h, passes)] = solves
    assert passes <= 8
    assert np.all(np.abs(h - x) <= 1e-12)


def test_newton_target_between_ulp_residuals_ends():
    # here the residual is +-2.2e-16 at neighbouring tilts: a bracket test
    # that merely admits its ends bounces the target between them until
    # NEWTON_MAX_ITER
    model = gw.scgf_model(gw.unconditioned(TAIL_M4))
    x = np.array([1.0979173386312917])
    with entropy_solves() as solves:
        model.family.solve((), x)
    [(_, h, passes)] = solves
    assert passes <= 8
    assert abs(h[0] - x[0]) <= 1e-12


# near-tied laws: two top letters 4e-6, 1e-9, 1e-11 and 4e-8 apart put the
# unconditioned entropy roots past 2^16, where Newton crept up the tail for
# 12, 22, 28 and 15 passes before the grid reached 2^48
NEAR_TIES = [gw.LetterDistribution(tuple(v / math.fsum(raw) for v in raw)) for raw in (
    (1.0, 0.5, 0.99999), (1.0, 0.5, 1.0 - 2.5e-9), (1.0, 0.5, 1.0 - 2.5e-11),
    (1.0, 0.0, 0.5, 1.0 - 2.5e-7))]


@settings(max_examples=100, deadline=None)
@given(laws_with_a_zero(2, 6), st.floats(0.02, 0.98))
@example(NEAR_TIES[0], 0.5)
@example(NEAR_TIES[1], 0.5)
@example(NEAR_TIES[2], 0.5)
@example(NEAR_TIES[3], 0.5)
def test_fig2_entropy_solves_stay_short(p, frac):
    # every source's 400-point fig2 interior is one block of the Newton loop,
    # so a target stopped by NEWTON_MAX_ITER would show as NEWTON_MAX_ITER + 2
    # passes (the grid's and the final one included); every call stays far
    # below that, and every target is met
    top = gw.admissible_epsilon_interval(p)[1]
    assume(top > 1e-9)
    xs = np.linspace(0.0, math.log(p.m), 400)
    assert len(xs) * p.m <= _BLOCK_CELLS
    for source in (gw.unconditioned(p), gw.conditioned(p, frac * top),
                   gw.uniform_typical(p, frac * top)):
        model = gw.scgf_model(source)
        with entropy_solves() as solves:
            gw.legendre_transform(model, xs)
        for x, h, passes in solves:
            assert passes <= 10 < NEWTON_MAX_ITER
            assert np.all(np.abs(h - x) <= 1e-12)


@settings(max_examples=100, deadline=None)
@given(laws_with_a_zero(2, 6), st.floats(0.02, 0.98), st.sampled_from([0, 1, 2, 400]))
def test_fig2_shared_solve_matches_each_source(p, frac, n):
    # fig2's one solve for the three sources (_scgf_models with the grid)
    # against each source's own legendre_transform, every cell bit for bit:
    # a target's bracket and start come from the family alone, so a model's
    # Lambda* is one float whichever call solves it
    from guesswork.asymptotics import _scgf_models
    from guesswork.cli import _sources

    low, top = gw.admissible_epsilon_interval(p)
    assume(top > 1e-9 and low < frac * top)
    xs = np.linspace(0.0, math.log(p.m), n)
    xs = np.append(xs, [math.nan, -0.5, math.log(p.m) + 0.5])  # nan and the two outsides
    models, shared = _scgf_models(_sources(p, frac * top), xs)
    for model, rates in zip(models, shared):
        assert rates.tobytes() == gw.legendre_transform(model, xs).tobytes()


def _model_bits(model):
    # every float field of an ScgfModel, as bytes
    return np.array([model.entropy_p, model.modal_decay, *model.window,
                     *model.edge_lines[0], *model.edge_lines[1]]).tobytes()


@settings(max_examples=100, deadline=None)
@given(laws_with_a_zero(2, 6), laws_with_a_zero(2, 6), st.floats(0.02, 0.98))
def test_one_law_models_share_one_family(p, other, frac):
    # _scgf_models builds a law's three models on the one TiltedFamily it
    # builds for them, and each equals, field by field and bit for bit, the
    # model scgf_model builds for its source alone; sources of two laws are
    # refused
    from guesswork.asymptotics import _scgf_models

    low, top = gw.admissible_epsilon_interval(p)
    assume(top > 1e-9 and low < frac * top)
    sources = [gw.unconditioned(p), gw.conditioned(p, frac * top),
               gw.uniform_typical(p, frac * top)]
    models = _scgf_models(sources)
    assert isinstance(models[0].family, TiltedFamily)
    assert models[0].family is models[1].family is models[2].family
    for source, model in zip(sources, models):
        alone = gw.scgf_model(source)
        assert model.source == alone.source
        assert _model_bits(model) == _model_bits(alone)
    if other != p:
        with pytest.raises(gw.DistributionError):
            _scgf_models([sources[1], gw.unconditioned(other)])


def admissibility_laws():
    """laws_with_a_zero, and laws on 2-5 letters 1e-3 to 1e-15 from uniform
    (1 + d w_a, w in [-1, 1]) or from a point mass (1 and d w_a, w in (0, 1])."""
    def near(drawn):
        raw, log_d, point_mass = drawn
        d = 10.0**log_d
        if point_mass:
            raw = [1.0] + [d * (0.5 + 0.5 * v) for v in raw[1:]]
        else:
            raw = [1.0 + d * v for v in raw]
        return gw.LetterDistribution(tuple(v / math.fsum(raw) for v in raw))

    return st.one_of(
        laws_with_a_zero(2, 6),
        st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5), st.floats(-15.0, -3.0),
                  st.booleans()).map(near),
    )


def _reference_admissibility(p):
    # the interval and the exemption as the tilted family states them: gaps
    # g_a below the top, c_max - h = sum (1/m' - p_a) g_a, h - c_min = sum p_a g_a
    from guesswork.tilting import _EDGE_TOL

    family = TiltedFamily(p)
    terms = [(p.probs[a], g) for a, g in zip(family.support, family.gaps.tolist())]
    share = 1.0 / len(terms)
    top = min(math.fsum((share - q) * g for q, g in terms), math.fsum(q * g for q, g in terms))
    h = gw.shannon_entropy(p)
    low = max(0.0, h - (family.c_max - _EDGE_TOL), (family.c_min + _EDGE_TOL) - h)
    return (low, top), family.c_max - family.c_min > _EDGE_TOL


@settings(max_examples=200, deadline=None)
@given(admissibility_laws(), st.floats(-1e-9, 1e-9), st.floats(0.0, 1.0))
@example(gw.LetterDistribution((0.5, 0.5)), 0.0, 0.5)
@example(gw.LetterDistribution((0.25, 0.0, 0.25, 0.5)), 1e-12, 0.5)
def test_admissibility_is_a_rule_of_p_alone(p, rel, frac):
    # admissible_epsilon_interval, computed from p's floats, is the interval
    # the tilted family's gaps, c_min and c_max give, bit for bit, and
    # require_admissible_epsilon refuses an eps at, near or inside its ends
    # exactly when that interval and the family's exemption (c_max - c_min
    # <= _EDGE_TOL) refuse it
    (low, top), gated = _reference_admissibility(p)
    assert np.array(gw.admissible_epsilon_interval(p)).tobytes() == np.array([low, top]).tobytes()
    for eps in (low, top, low * (1.0 + rel), top * (1.0 + rel), low + frac * (top - low)):
        try:
            gw.require_admissible_epsilon(p, eps)
            refused = None
        except gw.EpsilonInadmissibleError as err:
            refused = err.interval
        assert refused == ((low, top) if gated and not low < eps < top else None), (p, eps)


def tilting_laws():
    """Laws on 2-6 letters (some with a zero letter), on 300 letters, and
    laws whose two likeliest letters are 1e-6 to 1e-4 apart relative, whose
    near-plateau roots lie past the top of the Newton loop's tilt grid."""
    def wide(seed):
        raw = np.random.default_rng(seed).uniform(0.05, 1.0, 300)
        return gw.LetterDistribution(tuple((raw / raw.sum()).tolist()))

    def near_tie(drawn):
        raw, r = list(drawn[0]), drawn[1]
        raw[0] = max(raw)
        raw[1] = raw[0] * (1.0 - r)
        return gw.LetterDistribution(tuple(v / math.fsum(raw) for v in raw))

    return st.one_of(
        laws_with_a_zero(2, 6),
        st.integers(0, 2**32 - 1).map(wide),
        st.tuples(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
                  st.floats(1e-6, 1e-4)).map(near_tie),
    )


@settings(max_examples=60, deadline=None)
@given(tilting_laws(), st.sampled_from(["eta", "entropy", "mixed"]), st.data())
def test_newton_tilt_is_one_float_alone_or_in_any_batch(p, kinds, data):
    # every target's tilt from a batch that may span several _blocks, of
    # cross-entropy targets, entropy targets or both kinds in one call,
    # equals, bit for bit, its tilt solved alone, for interior targets and
    # targets within 1e-9 of an end of their residual's range (roots past
    # either end of the tilt grid among them); no _moments call, the grid
    # pass's included, holds more than _BLOCK_CELLS cells
    family = TiltedFamily(p)
    ranges = {"eta": (family.c_min, family.c_max),
              "entropy": (math.log(len(family.argmax)), math.log(len(family.support)))}
    rows = max(1, _BLOCK_CELLS // len(family.gaps))
    n = data.draw(st.integers(1, 3 * rows), label="n")
    if kinds == "mixed":
        ne = data.draw(st.integers(0, n), label="eta targets")
    else:
        ne = n if kinds == "eta" else 0
    ends = np.array([ranges["eta"]] * ne + [ranges["entropy"]] * (n - ne)).T
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    xs = ends[0] + (ends[1] - ends[0]) * rng.uniform(0.001, 0.999, n)
    deltas = data.draw(st.lists(st.floats(1e-12, 1e-9), max_size=4), label="deltas")
    picked = rng.choice(n, size=min(n, len(deltas)), replace=False)
    for i, delta in zip(picked, deltas):
        xs[i] = ends[0, i] + delta if rng.random() < 0.5 else ends[1, i] - delta
    cells, moments = [], TiltedFamily._moments

    def counted_moments(self, beta):
        cells.append(len(beta) * len(self.gaps))
        return moments(self, beta)

    with mock.patch.object(TiltedFamily, "_moments", counted_moments):
        batch = family._newton(xs[:ne], xs[ne:])
    assert max(cells) <= _BLOCK_CELLS
    # the _blocks seams and the seam between the two kinds
    seams = [i for j in [*range(rows, n, rows), *([ne] if 0 < ne < n else [])] for i in (j - 1, j)]
    for i in {*picked.tolist(), *seams[:6], *rng.choice(n, size=min(n, 3)).tolist()}:
        one = xs[i:i + 1]
        alone = family._newton(one, ()) if i < ne else family._newton((), one)
        assert batch[i:i + 1].tobytes() == alone.tobytes(), (i, ne, xs[i])


# log-gaps just inside and outside 746 / 2^16: at the grid's tilts past 2^16
# a letter this near the likeliest weighs > 0 or rounds to 0
AT_THE_TAIL_EDGE = [
    gw.LetterDistribution((1.0 / (1.0 + math.exp(-g)), 1.0 - 1.0 / (1.0 + math.exp(-g))))
    for g in (0.99 * 746.0 / 2**16, 1.01 * 746.0 / 2**16)
]


@settings(max_examples=60, deadline=None)
@given(tilting_laws())
@example(AT_THE_TAIL_EDGE[0])
@example(AT_THE_TAIL_EDGE[1])
def test_grid_moments_are_the_whole_grids_bit_for_bit(p):
    # the grid moments a family caches on its first solve, evaluated in
    # _blocks, are those of one _moments call over every finite _GRID tilt,
    # so every bracket, start and tilt is too
    from guesswork.tilting import _GRID

    family = TiltedFamily(p)
    family.solve((), np.array([0.5 * math.log(len(family.support))]))
    full = TiltedFamily(p)._moments(_GRID[1:-1])
    assert [g.tobytes() for g in family._grid] == [f.tobytes() for f in full]


def wide_range_laws(m_min=2, m_max=20):
    """Laws on m letters whose probabilities span up to 40 nats, so one tilt's
    weights span many magnitudes, subnormal ones among them."""
    return st.lists(st.floats(0.0, 40.0), min_size=m_min, max_size=m_max).map(
        lambda us: gw.LetterDistribution(tuple(
            w / math.fsum(math.exp(-u) for u in us) for w in (math.exp(-u) for u in us))))


@settings(max_examples=60, deadline=None)
@given(st.one_of(laws_with_a_zero(2, 20), wide_range_laws()),
       st.one_of(st.none(), st.tuples(st.integers(1, 500), st.integers(0, 2**32 - 1))))
def test_moments_sum_letters_in_order(p, drawn):
    # _moments on 1-500 tilts, log-uniform over 2^-16 .. 2^48 with 0, or the tilt
    # grid: each column is its tilt's moments alone, byte for byte; for m <= 7
    # letters it is byte for byte the sum along each row of an (n, m) weight
    # array; and for every m, log z, mean and var are within a stated bound of a
    # math.fsum reference
    from guesswork.tilting import _GRID

    family = TiltedFamily(p)
    if drawn is None:
        tilts = _GRID[1:-1]
    else:
        n, seed = drawn
        tilts = 2.0 ** np.random.default_rng(seed).uniform(-16.0, 48.0, n)
        tilts[0] = 0.0
    log_z, mean, var = family._moments(tilts)
    for j in range(len(tilts)):
        alone = family._moments(tilts[j:j + 1])
        assert [a.tobytes() for a in alone] == [log_z[j:j + 1].tobytes(), mean[j:j + 1].tobytes(),
                                                 var[j:j + 1].tobytes()], tilts[j]
    gaps, m = family.gaps, len(family.gaps)
    if m <= 7:
        ws = np.exp(-np.multiply.outer(tilts, gaps))
        z = ws.sum(axis=1)
        row_mean = (ws * gaps).sum(axis=1) / z
        dev = gaps - row_mean[:, None]
        row_var = (ws * dev * dev).sum(axis=1) / z
        assert [a.tobytes() for a in (log_z, mean, var)] == [
            a.tobytes() for a in (np.log(z), row_mean, row_var)]
    # Each weight is within 2 ulps of math.exp's (both within an ulp of exp),
    # z >= 1 (the top letter weighs 1) sums m of them in order, and the mean and
    # var sums add a product, a division and (var) a squared deviation; a
    # weight below 2^-1022 is off by up to 2^-1073 absolute, times a gap
    # (squared for var)
    u, gs = 2.0**-52, gaps.tolist()
    big = max(gs)
    for j, b in enumerate(tilts.tolist()):
        ws = [math.exp(-(g * b)) for g in gs]
        z = math.fsum(ws)
        mu = math.fsum(w * g for w, g in zip(ws, gs)) / z
        v = math.fsum(w * (g - mu) ** 2 for w, g in zip(ws, gs)) / z
        assert abs(log_z[j] - math.log(z)) <= (m + 4) * u, b
        assert abs(mean[j] - mu) <= (2 * m + 8) * u * mu + m * big * 2.0**-1070, b
        assert abs(var[j] - v) <= (2 * m + 12) * u * v + m * big * big * 2.0**-1070, b


# alphas of both route thresholds, alpha < -1, alpha = -1 (the log-ratio
# integral), alpha = 0, |alpha| < 1e-2 and a huge one
BATCH_ALPHAS = (-0.98, -0.5, 0.5, 1.0, 2.0, 3.7, -3.0, -1.5, -1.0, 0.0, 5e-3, -4e-3, 5.0, 20.0,
                1e5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(laws_with_a_zero(2, 4), st.floats(0.02, 0.6), st.integers(1, 1200),
                       st.sampled_from(("unconditioned", "conditioned", "uniform")),
                       st.sampled_from((1.0, 0.5, 1e-3, None))),
             min_size=1, max_size=4),
    st.sampled_from((0.1, 2.0, 7.0)),
    st.lists(st.sampled_from(BATCH_ALPHAS), max_size=6),
)
def test_kernel_batch_matches_each_table_alone(drawn, rescale, alphas):
    # one kernel pass over a list of tables, each at its own scale (1/k for
    # None) and the first twice at two scales, gives every table its
    # one-table results bit for bit
    from guesswork.oracle import _log_sums

    entries = []
    for p, eps, k, kind, scale in drawn:
        k = min(k, {2: 1200, 3: 40, 4: 12}[p.m])
        source = {
            "unconditioned": lambda: gw.unconditioned(p),
            "conditioned": lambda: gw.conditioned(p, eps),
            "uniform": lambda: gw.uniform_typical(p, eps),
        }[kind]()
        try:
            table = gw.build_guess_table(source, k)
        except gw.EmptyTypicalSetError:
            continue
        entries.append((table.bounds, table.size_parts, table.log_word_prob,
                        1.0 / k if scale is None else scale))
    assume(entries)
    entries.append((*entries[0][:3], rescale * entries[0][3]))

    def bits(result):
        logs, log_logs = result
        return np.array([*logs, log_logs]).tobytes()

    batch = _log_sums(entries, alphas)
    assert len(batch) == len(entries)
    for entry, got in zip(entries, batch):
        assert bits(got) == bits(_log_sums([entry], alphas)[0])


# each series quantity's FiniteKExponents field (None: the moment exponent at alpha)
SERIES_FIELDS = {"scgf": None, "mean_log": "mean_log_exponent", "top_prob": "top_prob_exponent",
                 "modal_count": "modal_count_exponent", "typical_size": "typical_size_exponent"}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((gw.unconditioned, gw.conditioned, gw.uniform_typical)),
    simplexes(2, 3),
    st.floats(0.05, 0.95),
    st.lists(st.integers(1, 12), min_size=2, max_size=4),
    st.sampled_from(tuple(SERIES_FIELDS)),
    st.floats(-0.95, 6.0),
)
def test_convergence_series_is_one_batch_of_finite_k_exponents(kind, p, frac, ks, quantity,
                                                                 alpha):
    # a series over a chain of ks is one kernel pass whose values are finite_k_exponents'
    # at each k bit for bit; an empty typical set is one error text, whichever oracle
    # meets it first; typical_size of the unconditioned source is refused before any pass
    from guesswork import oracle

    top = gw.admissible_epsilon_interval(p)[1]
    source = kind(p) if kind is gw.unconditioned else kind(p, frac * top if top > 0.0 else frac)
    empty = {}
    for k in ks:
        try:
            gw.build_guess_table(source, k)
        except gw.EmptyTypicalSetError as error:
            empty.setdefault(k, str(error))
    with mock.patch.object(oracle, "_log_sums", wraps=oracle._log_sums) as kernel:
        try:
            got = gw.convergence_series(source, quantity, tuple(ks), alpha=alpha)
        except (gw.EmptyTypicalSetError, gw.DistributionError) as error:
            got = error
    if quantity == "typical_size" and kind is gw.unconditioned:
        assert type(got) is gw.DistributionError and kernel.call_count == 0
        return
    assert kernel.call_count == 1
    first_empty = next((k for k in ks if k in empty), None)
    if first_empty is not None:
        text = empty[first_empty]
        assert type(got) is gw.EmptyTypicalSetError and str(got) == text
        for call in (gw.finite_k_exponents, gw.naive_enumeration_crosscheck):
            with pytest.raises(gw.EmptyTypicalSetError) as caught:
                call(source, first_empty)
            assert str(caught.value) == text
        return
    field = SERIES_FIELDS[quantity]
    want = []
    for k in ks:
        e = gw.finite_k_exponents(source, k, alphas=(alpha,) if field is None else ())
        want.append(e.moment_exponent(alpha) if field is None else getattr(e, field))
    assert [pt.k for pt in got] == ks
    assert np.array([pt.value for pt in got]).tobytes() == np.array(want).tobytes()


# the powers of the edge-layout check: the default alphas, two larger ones and
# one near -1
EDGE_ALPHAS = (-0.5, 0.5, 1.0, 2.0, 3.7, -0.93, 7.25)


@st.composite
def edge_layouts(draw):
    """A table whose block edges fall at and around rank 16: bounds, log weights, scale."""
    first = draw(st.sampled_from((1, 2, 14, 15, 16, 17)))
    edges = set(draw(st.lists(st.integers(2, 80), min_size=1, max_size=6)))
    edges |= {e for e in (15, 16, 17, 18) if draw(st.integers(0, 9)) < 3}
    bounds = sorted({first} | {e for e in edges if e > first})
    assume(len(bounds) > 1)
    log_w = draw(st.lists(st.floats(-30.0, 0.0), min_size=len(bounds) - 1,
                          max_size=len(bounds) - 1, unique=True))
    return bounds, sorted(log_w, reverse=True), draw(st.sampled_from((1.0, 1 / 7)))


@settings(max_examples=150, deadline=None)
@given(edge_layouts())
def test_blocks_at_rank_16_match_exact_sums(layout):
    # every way a table's blocks can start, end or straddle rank 16, from which
    # the Euler-Maclaurin route starts, against a 50-digit mpmath sum: within
    # the stated bound, a few 1e-15 plus a few ulp of each log a term is made of
    from mpmath import mp, mpf

    from guesswork.oracle import _int_parts, _log_sums

    bounds, log_w, scale = layout
    sizes = [y - x for x, y in zip(bounds, bounds[1:])]
    got, got_logs = _log_sums([(bounds, _int_parts(sizes), log_w, scale)], EDGE_ALPHAS)[0]
    b, top = bounds[-1] - 1, max(map(abs, log_w))
    with mp.workdps(50):
        blocks = [(mp.exp(w), range(x, y)) for w, x, y in zip(log_w, bounds, bounds[1:])]
        for alpha, value, s in zip((*EDGE_ALPHAS, None), (*got, got_logs),
                                    [scale] * len(EDGE_ALPHAS) + [1.0]):
            if alpha is None:
                total = mp.fsum(w * mp.fsum(mp.log(i) for i in r) for w, r in blocks)
                if not total:  # rank 1 alone: log 1 = 0
                    assert value == -math.inf
                    continue
            else:
                total = mp.fsum(w * mp.fsum(mpf(i) ** alpha for i in r) for w, r in blocks)
            want = mp.log(total)
            bound = 4e-15 + 2.0**-50 * (2 * abs(alpha or 0.0) * math.log(b) + abs(want) + top)
            assert abs(value - s * want) <= s * bound, (alpha, bounds)
