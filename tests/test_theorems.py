"""Theorems on exact finite-k guesswork that hold at every word length k.

Guessing a law on N words in probability-descending order, i^alpha rises
with the rank i for alpha > 0 and falls for alpha < 0, so by Chebyshev's
sum inequality the uniform law on the same N words has the largest
E[G^alpha] for alpha > 0, and the largest E[log G], and the smallest for
-1 < alpha < 0. The conditioned source and the uniform-on-T source share
the typical set T, so at every k the conditioned guesswork is at most the
uniform one: the gap U - C between their growth rates, the paper's
headline, is nonnegative at finite k too. For every source the power means
(E[G^alpha])^(1/alpha) do not fall as alpha rises (Lyapunov), with the
geometric mean exp E[log G] at alpha = 0 between the negative and the
positive orders (Jensen). Arikan's bracket (IEEE Trans. Inf. Theory 42(1),
1996) holds for any law on M words guessed in that order:
(1 + ln M)^(-rho) R <= E[G^rho] <= R for rho > 0, with
R = (sum_w P(w)^(1/(1+rho)))^(1+rho). Massey's bound (ISIT 1994) gives
E[G] >= 2^(H(W) - 2) + 1 whenever the entropy H(W) is at least 2 bits.

Each comparison allows the error the kernel states (oracle's module
docstring): a few ulp of the largest log a term is made of, for
(1/k) log E[G^alpha], and 32 ulp of log E[log G] on each side.
"""

import math

from hypothesis import example, given, settings, strategies as st

import guesswork as gw

from laws import renyi_rate

KINDS = (gw.unconditioned, gw.conditioned, gw.uniform_typical)

laws = (
    st.integers(2, 3)
    .flatmap(lambda m: st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    .map(lambda raw: tuple(v / math.fsum(raw) for v in raw))
)
orders = st.lists(st.floats(-0.95, 8.0).filter(lambda a: abs(a) >= 1e-3),
                  min_size=1, max_size=4, unique=True)


def _source(kind, p, frac):
    """The source of that kind, epsilon frac of the admissible top (frac itself for a law
    uniform on its support, whose interval is empty)."""
    top = gw.admissible_epsilon_interval(p)[1]
    return kind(p) if kind is gw.unconditioned else kind(p, frac * top if top > 0.0 else frac)


def _exponents(kind, p, frac, k, alphas):
    """finite_k_exponents of _source at the first word length from k on, up to k + 30,
    whose typical set is nonempty (None if there is none)."""
    source = _source(kind, p, frac)
    for j in range(k, k + 31):
        try:
            return gw.finite_k_exponents(source, j, alphas=tuple(alphas))
        except gw.EmptyTypicalSetError:
            pass
    return None


def _moment_slack(e, p, alpha) -> float:
    """8 ulp of the largest log a term of (1/k) log E[G^alpha] is made of: |alpha| log of a
    rank, a word's log-probability and a block's log size, each at most k max(log m, -log p_a)."""
    big = (abs(alpha) + 2.0) * e.k * max(math.log(len(p)), -math.log(min(p)))
    return 8.0 * math.ulp(big) / e.k


def _mean_log_slack(e) -> float:
    """32 ulp of log E[log G], as a bound on (1/k) E[log G]."""
    x = e.mean_log_exponent
    return x * 32.0 * math.ulp(abs(math.log(e.k * x))) if x > 0.0 else 0.0


@settings(max_examples=100, deadline=None)
@given(laws, st.floats(0.1, 0.95), st.integers(1, 40), orders)
@example((0.5, 0.5), 0.26, 59, [-0.072, 0.487, 2.841, 3.233])  # C = U: p uniform
@example((1 / 3, 1 / 3, 1 / 3), 0.47, 23, [0.408, 0.598, 3.001, 5.832])
@example((0.41532275804248503, 0.23297663777897626, 0.35170060417853877), 0.05, 3,
         [-0.014, 0.407, 2.121, 5.108])  # T one type class: C = U
def test_conditioned_guesswork_is_at_most_uniform_on_the_typical_set(p, frac, k, alphas):
    c = _exponents(gw.conditioned, p, frac, k, alphas)
    if c is None:
        return
    u = _exponents(gw.uniform_typical, p, frac, c.k, alphas)
    assert u.k == c.k and u.typical_size_exponent == c.typical_size_exponent
    for (alpha, cv), (_, uv) in zip(c.moment_exponents, u.moment_exponents):
        slack = _moment_slack(c, p, alpha) + _moment_slack(u, p, alpha)
        low, high = (cv, uv) if alpha > 0.0 else (uv, cv)
        assert low <= high + slack, (alpha, cv, uv)
    slack = _mean_log_slack(c) + _mean_log_slack(u)
    assert c.mean_log_exponent <= u.mean_log_exponent + slack


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KINDS), laws, st.floats(0.1, 0.95), st.integers(1, 40), orders)
def test_power_means_of_guesswork_rise_with_the_order(kind, p, frac, k, alphas):
    e = _exponents(kind, p, frac, k, alphas)
    if e is None:
        return
    # (order, (1/k) log of the power mean, its slack); order 0 is the geometric mean
    means = sorted([(a, v / a, _moment_slack(e, p, a) / abs(a)) for a, v in e.moment_exponents]
                   + [(0.0, e.mean_log_exponent, _mean_log_slack(e))])
    for (a, low, s), (b, high, t) in zip(means, means[1:]):
        assert low <= high + s + t, (a, b, low, high)


def _table_logs(e, kind, p, frac):
    """The log size N_j and log word probability of each row of the table behind e, and
    log M, M its number of words (all of positive probability)."""
    table = gw.build_guess_table(_source(kind, p, frac), e.k)
    b = table.bounds
    log_sizes = [math.log(hi - lo) for lo, hi in zip(b, b[1:])]
    return log_sizes, table.log_word_prob.tolist(), math.log(table.total_words)


def _lse(terms) -> float:
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KINDS), laws, st.floats(0.1, 0.95), st.integers(1, 40), orders)
def test_guesswork_moments_lie_in_arikans_bracket(kind, p, frac, k, alphas):
    e = _exponents(kind, p, frac, k, alphas)
    if e is None:
        return
    log_sizes, lws, log_m = _table_logs(e, kind, p, frac)
    for rho, v in e.moment_exponents:
        if rho <= 0.0:
            continue
        # log R: k Lambda(rho) unconditioned (rho times the Renyi entropy of order
        # 1/(1+rho)), rho log |T| uniform, from the rows of the conditioned table
        if kind is gw.unconditioned:
            log_r = e.k * rho * renyi_rate(p, 1.0 / (1.0 + rho))
        elif kind is gw.uniform_typical:
            log_r = rho * log_m
        else:
            log_r = (1.0 + rho) * _lse([n + lw / (1.0 + rho) for n, lw in zip(log_sizes, lws)])
        slack = 2.0 * _moment_slack(e, p, rho)
        assert log_r / e.k - rho * math.log1p(log_m) / e.k <= v + slack, (rho, v, log_r)
        assert v <= log_r / e.k + slack, (rho, v, log_r)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KINDS), laws, st.floats(0.1, 0.95), st.integers(1, 40))
def test_mean_guesswork_meets_masseys_bound(kind, p, frac, k):
    e = _exponents(kind, p, frac, k, (1.0,))
    if e is None:
        return
    log_sizes, lws, _ = _table_logs(e, kind, p, frac)
    h_bits = math.fsum(-math.exp(n + lw) * lw for n, lw in zip(log_sizes, lws)) / math.log(2.0)
    if h_bits < 2.0:
        return
    log_bound = math.log1p(2.0 ** (h_bits - 2.0))
    slack = 2.0 * _moment_slack(e, p, 1.0)
    assert log_bound / e.k <= e.moment_exponent(1.0) + slack, (h_bits, e.moment_exponent(1.0))
