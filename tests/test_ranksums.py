"""The exact sum behind every log-sum-exp of the rank-sum kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guesswork import ranksums
from guesswork.ranksums import _CASCADE_MIN, _PRUNE, _exact_sum, _lse, _pruned_sum


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


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("exp", "grid", "equal", "ties", "wide", "tail_tie")),
    st.integers(1, 3 * _CASCADE_MIN),
    st.integers(0, 2**32 - 1),
    st.floats(1.0, 700.0),
)
def test_exact_sum_is_fsum_bit_for_bit(shape, n, seed, scale):
    x = _terms(shape, n, seed, scale)
    want = math.fsum(x.tolist())
    assert _exact_sum(x) == want
    # the sum from the terms >= _PRUNE alone is fsum's, or None where the rest
    # may decide the rounding: always at a tie the tail breaks
    head = x[x >= _PRUNE].tolist()
    got = _pruned_sum(head, x.size - len(head))
    assert got is None or got == want
    if shape == "tail_tie" and math.fsum(head) != want:
        assert got is None


def test_exact_sum_takes_the_cascade_on_a_table_like_sum(monkeypatch):
    # the fast path does run: no fsum call on 20,000 terms of a table
    calls = []
    monkeypatch.setattr(ranksums.math, "fsum", lambda v: calls.append(v) or 0.0)
    x = _terms("exp", 20000, 1, 30.0)
    got = _exact_sum(x)
    monkeypatch.undo()
    assert calls == [] and got == math.fsum(x.tolist())


@pytest.mark.parametrize("head, want", [
    ([1.0, 2.0**-53], 1.0),  # 1 + 2^-53 ties between 1 and 1 + 2^-52: to even
    ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),  # a tie inside a binade: to even
])
def test_exact_tie_falls_back_to_fsum(monkeypatch, head, want):
    x = np.zeros(2 * _CASCADE_MIN)
    x[: len(head)] = head
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(ranksums.math, "fsum", lambda v: calls.append(len(v)) or fsum(v))
    assert _exact_sum(x) == want
    assert calls == [x.size]


def _one_segment(terms, scale=1.0):
    terms = np.asarray(terms, dtype=np.float64).reshape(1, -1)
    return ranksums._lse_segments(terms, [[scale]], np.array([terms.shape[1]]))[0][0]


def _scaled_lse(terms, scale):
    # _lse at scale 1; a scaled sum is one segment of _lse_segments
    return _lse(terms) if scale == 1.0 else _one_segment(terms, scale)


@pytest.mark.parametrize("n", [10, 2 * _CASCADE_MIN])
@pytest.mark.parametrize("scale", [1.0, 0.01])
def test_lse_non_finite_terms(n, scale):
    # -inf terms drop out, a +inf term makes the result +inf, a nan makes it nan,
    # on both sides of the cascade cutover
    terms = scale * np.log(_terms("exp", n, 2, 30.0))
    want = float(terms.max()) + scale * math.log(
        math.fsum(np.exp((terms - terms.max()) / scale).tolist()))
    assert _scaled_lse(terms, scale) == want
    assert _scaled_lse(np.concatenate((terms, [-math.inf] * n)), scale) == want
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
              st.integers(1, 3 * _CASCADE_MIN), st.integers(0, 2**32 - 1), st.floats(1.0, 700.0)),
))
def test_lse_is_the_one_segment_lse_segments_bit_for_bit(terms):
    # _lse sums its one row without the 2-D set-up: the same float, inf and nan
    # included, on pruned heads, the cascade and the fsum fallback alike
    assert repr(_lse(terms)) == repr(_one_segment(terms))


def test_lse_of_the_empty_row_is_minus_inf():
    assert _lse([]) == _lse(np.empty(0)) == -math.inf
