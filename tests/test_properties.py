"""Randomized invariants: simplex closure, monotonicity, duality, exactness."""

import math

from hypothesis import assume, given, settings, strategies as st

import guesswork as gw
from guesswork.tilting import tilted_type_beta


def simplexes(m_min=2, m_max=4):
    return (
        st.integers(m_min, m_max)
        .flatmap(lambda m: st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        .map(lambda raw: tuple(v / math.fsum(raw) for v in raw))
    )


@settings(max_examples=60, deadline=None)
@given(simplexes(), st.floats(0.01, 20.0))
def test_tilted_type_stays_on_simplex(p, beta):
    t = tilted_type_beta(p, beta)
    assert abs(math.fsum(t.freqs) - 1.0) < 1e-9
    assert all(f >= 0.0 for f in t.freqs)
    assert 0.0 <= gw.shannon_entropy(t) <= math.log(len(p)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(simplexes(), st.floats(-0.9, 8.0), st.floats(0.01, 2.0))
def test_tilted_cross_entropy_monotone(p, alpha, step):
    assert gw.tilted_cross_entropy(p, alpha) <= gw.tilted_cross_entropy(p, alpha + step) + 1e-10


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
    d = gw.kl_divergence(l, p)
    assert d >= 0.0
    assert abs(gw.cross_entropy(l, p) - gw.shannon_entropy(l) - d) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(0.55, 0.95), st.floats(0.1, 0.9), st.floats(-0.9, 4.0), st.floats(0.0, 0.69))
def test_weak_duality(p0, frac, alpha, x):
    # Lambda*(x) >= x alpha - Lambda(alpha) for every pair in range
    eps = frac * gw.admissible_epsilon_binary(p0)[1]
    source = gw.conditioned(gw.LetterDistribution((p0, 1.0 - p0)), eps)
    model = gw.scgf_model(source)
    rate = gw.legendre_transform(model, x)
    if math.isinf(rate):
        return
    assert rate >= x * alpha - model(alpha) - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.55, 0.95), st.floats(0.1, 0.9), st.floats(-0.9, 3.0), st.floats(0.05, 1.5))
def test_scgf_midpoint_convex(p0, frac, a, width):
    eps = frac * gw.admissible_epsilon_binary(p0)[1]
    model = gw.scgf_model(gw.conditioned(gw.LetterDistribution((p0, 1.0 - p0)), eps))
    b = a + width
    assert model(0.5 * (a + b)) <= 0.5 * (model(a) + model(b)) + 1e-10


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=2, max_size=4).filter(lambda c: sum(c) >= 1))
def test_type_count_log_consistency(counts):
    t = gw.TypeVector.from_counts(counts)
    n = gw.type_count(t)
    assert n >= 1
    assert abs(gw.log_type_count(t) - math.log(n)) < 1e-8


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
    eps = frac * gw.admissible_epsilon_binary(p0)[1]
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
    st.floats(0.02, 0.98),
    st.sampled_from(("unconditioned", "conditioned")),
)
def test_legendre_transform_interior(p, frac, u, kind):
    eps = frac * gw.admissible_epsilon_interval(p)[1]
    assume(eps > 1e-6)
    source = gw.unconditioned(p) if kind == "unconditioned" else gw.conditioned(p, eps)
    model = gw.scgf_model(source)
    assume(model.max_slope - model.plateau_width > 1e-6)
    x = model.plateau_width + u * (model.max_slope - model.plateau_width)
    rate = gw.legendre_transform(model, x)

    # Lambda*(x) = D(l_beta || p) at h(l_beta) = x: bisection on log beta over
    # validated tilted types, independent of the float-only family
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gw.shannon_entropy(tilted_type_beta(p, math.exp(mid))) > x:
            lo = mid
        else:
            hi = mid
    l = tilted_type_beta(p, math.exp(0.5 * (lo + hi)))
    assert abs(rate - gw.kl_divergence(l, p)) < 1e-10

    # and it is the supremum of x alpha - Lambda(alpha), alpha = 1/beta - 1
    def dual(log_beta):
        alpha = math.exp(-log_beta) - 1.0
        return x * alpha - model(alpha)

    assert abs(rate - _golden_section_max(dual, -30.0, 30.0)) < 1e-10
