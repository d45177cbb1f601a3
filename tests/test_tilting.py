"""Tilted family, window boundary types, clamped optimiser regimes."""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from guesswork import (
    DistributionError,
    EpsilonInadmissibleError,
    Regime,
    admissible_epsilon_interval,
    binary_closed_forms,
    boundary_types,
    clamped_optimum,
    conditioned,
    cross_entropy,
    require_admissible_epsilon,
    scgf_model,
    shannon_entropy,
    solve_cross_entropy,
    tilted_type,
    typical_window,
    unconditioned,
    uniform_typical,
)
from guesswork.tilting import TiltedFamily

from laws import tilted_law

P = (0.8, 0.2)
EPS = 0.1
H = 0.5004024235381879

# frozen solutions of the window boundary problem at p=(0.8,0.2), eps=0.1
LM0 = 0.7278652479555518
LP0 = 0.8721347520444482
H_MINUS = 0.5853705712676309
H_PLUS = 0.3823083894659230
ETA1 = 0.6852416716875065


def test_tilted_type_endpoints():
    assert TiltedFamily(P).law(1.0) == pytest.approx(P, abs=1e-15)
    assert TiltedFamily(P).law(0.0) == pytest.approx((0.5, 0.5), abs=1e-15)
    # beta = 1/2 on (0.8, 0.2): ratio sqrt(4) = 2
    assert tilted_type(P, 1.0).freqs == pytest.approx((2 / 3, 1 / 3), abs=1e-14)
    assert tilted_type(P, 0.0).freqs == pytest.approx(P, abs=1e-15)


def test_tilted_type_zero_mass_letters_stay_zero():
    t = tilted_type((0.5, 0.0, 0.5), 1.0 / 0.3 - 1.0)
    assert t.freqs[1] == 0.0
    assert t.freqs == pytest.approx(tilted_law((0.5, 0.0, 0.5), 0.3), abs=1e-15)


def test_tilted_cross_entropy_monotone():
    assert cross_entropy(tilted_type(P, 0.0), P) == pytest.approx(H, abs=1e-14)
    assert cross_entropy(tilted_type(P, 1.0), P) == pytest.approx(ETA1, abs=1e-12)
    values = [cross_entropy(tilted_type(P, a), P) for a in (-0.9, -0.5, 0.0, 0.5, 1.0, 3.0, 10.0)]
    assert values == sorted(values)


def test_cross_entropy_range():
    family = TiltedFamily(P)
    c_min, c_max = family.c_min, family.c_max
    assert c_min == pytest.approx(-math.log(0.8), abs=1e-15)
    assert c_max == pytest.approx(0.9162907318741551, abs=1e-12)
    # c_max is the cost of the uniform type on the support
    assert c_max == pytest.approx(-0.5 * (math.log(0.8) + math.log(0.2)), abs=1e-14)


def test_solve_cross_entropy_residual():
    for target in (0.3, 0.45, H, 0.6, 0.85):
        beta = solve_cross_entropy(P, target)
        got = cross_entropy(tilted_type(P, 1.0 / beta - 1.0), P)
        assert got == pytest.approx(target, abs=1e-10)


def test_solve_cross_entropy_outside_the_attainable_range():
    family = TiltedFamily(P)
    for target in (family.c_min, 0.1, family.c_max, 1.5):
        with pytest.raises(DistributionError, match="outside the attainable open range"):
            solve_cross_entropy(P, target)


def test_boundary_types_frozen():
    bnd = boundary_types(P, EPS)
    assert bnd.exists_minus and bnd.exists_plus
    assert not bnd.clamped_to_log_m
    assert bnd.l_minus.freqs[0] == pytest.approx(LM0, abs=1e-9)
    assert bnd.l_plus.freqs[0] == pytest.approx(LP0, abs=1e-9)
    assert bnd.entropy_minus == pytest.approx(H_MINUS, abs=1e-12)
    assert bnd.entropy_plus == pytest.approx(H_PLUS, abs=1e-12)
    # the boundary types sit exactly on the window edges
    assert cross_entropy(bnd.l_minus, P) == pytest.approx(H + EPS, abs=1e-10)
    assert cross_entropy(bnd.l_plus, P) == pytest.approx(H - EPS, abs=1e-10)


def test_boundary_types_uniform_p_degenerate():
    bnd = boundary_types((0.5, 0.5), 0.1)
    assert bnd.clamped_to_log_m
    assert not bnd.exists_minus
    assert not bnd.exists_plus
    assert bnd.l_minus.freqs == pytest.approx((0.5, 0.5), abs=1e-15)
    assert bnd.l_plus.freqs == pytest.approx((0.5, 0.5), abs=1e-15)


def test_boundary_types_large_epsilon_clamps():
    # eps beyond the admissible interval: the h+eps edge is unreachable,
    # l_minus becomes the uniform type on the support
    bnd = boundary_types(P, 0.5)
    assert not bnd.exists_minus
    assert bnd.clamped_to_log_m
    assert bnd.l_minus.freqs == pytest.approx((0.5, 0.5), abs=1e-15)
    # and h-eps < -log max p means l_plus degenerates onto the argmax set
    assert not bnd.exists_plus
    assert bnd.l_plus.freqs == pytest.approx((1.0, 0.0), abs=1e-15)


def test_admissible_epsilon_interval():
    lo, hi = admissible_epsilon_interval(P)
    assert lo == 0.0
    assert hi == pytest.approx(0.2772588722239781, abs=1e-12)
    require_admissible_epsilon(P, 0.1)
    with pytest.raises(EpsilonInadmissibleError) as exc:
        require_admissible_epsilon(P, 0.5)
    assert exc.value.interval[1] == pytest.approx(hi, abs=1e-12)


def _binary_interval_top(p0):
    # min(c_max - h, h - c_min) for (p0, 1 - p0) at 60 digits; 1 - p0 is exact for p0 >= 1/2
    from mpmath import mp, mpf

    with mp.workdps(60):
        p0 = mpf(p0)
        p1 = 1 - p0
        h = -(p0 * mp.log(p0) + p1 * mp.log(p1))
        return float(min(-(mp.log(p0) + mp.log(p1)) / 2 - h, h + mp.log(p0)))


# p0 at 1/2 + 10^-u, u = 1..12, and anywhere in (1/2, 0.999)
_BINARY_P0 = st.one_of(
    st.integers(1, 12).map(lambda u: 0.5 + 10.0**-u),
    st.floats(0.5, 0.999, exclude_min=True),
)


@settings(max_examples=200, deadline=None)
@given(_BINARY_P0)
@example(0.5 + 1e-6)
def test_admissible_interval_keeps_its_digits_near_uniform(p0):
    # c_max - h and h - c_min are summed from the gaps, not as differences of
    # entropies near log 2: as such a difference the top was 5.6e-6 off at
    # p0 = 1/2 + 1e-6 and 0.0 at 1/2 + 1e-9
    want = _binary_interval_top(p0)
    assert abs(admissible_epsilon_interval((p0, 1.0 - p0))[1] - want) <= 1e-8 * want, p0


def test_admissible_interval_at_half_plus_1e9():
    p0 = 0.5 + 1e-9
    # 4 (p0 - 1/2)^2 to leading order, with p0 - 1/2 = 9.99999972e-10 as a float
    top = admissible_epsilon_interval((p0, 1.0 - p0))[1]
    assert round(top, 19) == 4.0e-18
    assert abs(top - _binary_interval_top(p0)) <= 1e-10 * top


@settings(max_examples=200, deadline=None)
@given(_BINARY_P0, st.floats(-1e-9, 1e-9))
@example(0.75, -2.220446049250313e-16)  # l+ rounds onto (1, 0): was a math domain error
def test_binary_closed_forms_admit_what_the_general_rule_admits(p0, rel):
    # one admissibility rule: the closed forms refuse an epsilon near the
    # interval's end exactly when require_admissible_epsilon does (p0 kept
    # outside the near-uniform exemption, c_max - c_min <= 1e-12)
    assume(p0 - 0.5 > 1e-12)
    eps = admissible_epsilon_interval((p0, 1.0 - p0))[1] * (1.0 + rel)
    refused = []
    for check in (lambda: binary_closed_forms(p0, eps),
                  lambda: require_admissible_epsilon((p0, 1.0 - p0), eps)):
        try:
            check()
            refused.append(False)
        except EpsilonInadmissibleError:
            refused.append(True)
    assert refused[0] == refused[1], (p0, eps)


def _eta_mp(p, beta):
    # eta(beta) = -sum_a l_a log p_a, l_a proportional to p_a^beta, at 50 digits
    from mpmath import mp, mpf

    with mp.workdps(50):
        qs = [mpf(q) for q in p if q > 0.0]
        ws = [q ** mpf(beta) for q in qs]
        return -mp.fsum(w * mp.log(q) for w, q in zip(ws, qs)) / mp.fsum(ws)


def _near_uniform(delta, shape):
    # (1/2 + delta, 1/2 - delta) for an empty shape; else 1/m + d w_a on m =
    # len(shape) letters, w the centred shape scaled to max |w_a| = 1, d <= 1/(2m)
    if not shape:
        return (0.5 + delta, 0.5 - delta)
    m = len(shape)
    w = [v - math.fsum(shape) / m for v in shape]
    scale = max(abs(v) for v in w) or 1.0
    raw = [1.0 / m + min(delta, 0.5 / m) * v / scale for v in w]
    return tuple(q / math.fsum(raw) for q in raw)


@settings(max_examples=300, deadline=None)
@given(
    # p0 - 1/2: 10^-u; where the interval's lower end is positive and below its
    # top (about 3.5e-7 to 5e-7); or within 1e-12 of a point mass
    st.one_of(st.integers(1, 15).map(lambda u: 10.0**-u), st.floats(3.5e-7, 5e-7),
              st.floats(-16.0, -12.0).map(lambda v: 0.5 - 10.0**v)),
    st.sampled_from((None, 0, 1)),
    st.floats(-17.0, 0.0),
    st.floats(-1e-6, 1e-6),
    # a binary law, or a law on 3-5 letters within delta of uniform
    st.one_of(st.just(()), st.integers(3, 5).flatmap(
        lambda m: st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m).map(tuple))),
)
@example(1e-8, None, -16.0, 0.0, ())  # h - eps within 1e-12 of c_max, the l+ edge's far end
@example(4.835411528e-7, 0, 0.0, 1e-15, ())  # just above a lower end 1e-12 - top, which rounding moves
def test_every_positive_epsilon_has_a_window(delta, end, log_eps, rel, shape):
    # eps log-uniform in [1e-17, 1], or within 1e-6 relative of an end of the
    # admissible interval, admitted or not: each finite edge of the window
    # solves its target to 2e-15 at 50 digits, however near the far end of
    # (c_min, c_max) the target lies
    p = _near_uniform(delta, shape)
    eps = 10.0**log_eps if end is None else admissible_epsilon_interval(p)[end] * (1.0 + rel)
    assume(eps > 0.0)
    lo, hi = typical_window(p, eps)
    bnd = boundary_types(p, eps)  # both edges through TiltedFamily.window
    for beta, target in ((bnd.beta_minus, hi), (bnd.beta_plus, lo)):
        if beta is not None:
            assert abs(_eta_mp(p, beta) - target) <= 2e-15, (p, eps, beta, target)


def test_require_admissible_uniform_p_exempt():
    # degenerate uniform source: interval is empty but everything is typical
    require_admissible_epsilon((0.5, 0.5), 0.1)


def test_clamped_optimum_regimes():
    opt = clamped_optimum(P, EPS, 0.0)
    assert opt.regime is Regime.INTERIOR
    assert opt.type_vector.freqs == pytest.approx(P, abs=1e-14)
    # eta(1) > h + eps: the high-entropy edge binds
    opt = clamped_optimum(P, EPS, 1.0)
    assert opt.regime is Regime.UPPER_CLAMP
    assert opt.type_vector.freqs[0] == pytest.approx(LM0, abs=1e-9)
    # alpha near -1 drives the tilt toward the argmax letter, low edge binds
    opt = clamped_optimum(P, EPS, -0.9)
    assert opt.regime is Regime.LOWER_CLAMP
    assert opt.type_vector.freqs[0] == pytest.approx(LP0, abs=1e-9)


def test_regime_breakpoints():
    alpha_low, alpha_high = scgf_model(conditioned(P, EPS)).breakpoints
    assert alpha_low is not None and alpha_high is not None
    assert -1.0 < alpha_low < 0.0 < alpha_high
    assert cross_entropy(tilted_type(P, alpha_low), P) == pytest.approx(H - EPS, abs=1e-9)
    assert cross_entropy(tilted_type(P, alpha_high), P) == pytest.approx(H + EPS, abs=1e-9)
    # optimiser switches branch exactly there
    assert clamped_optimum(P, EPS, alpha_high + 1e-6).regime is Regime.UPPER_CLAMP
    assert clamped_optimum(P, EPS, alpha_high - 1e-6).regime is Regime.INTERIOR


def test_family_support_and_argmax():
    # the support, and the letters of the beta -> inf limit (ties within 1e-12)
    family = TiltedFamily((0.8, 0.2))
    assert family.support == (0, 1) and family.argmax == (0,)
    assert family.c_min == -math.log(0.8)
    assert TiltedFamily((0.5, 0.5)).argmax == (0, 1)
    family = TiltedFamily((0.4, 0.0, 0.4 + 1e-13, 0.2 - 1e-13))
    assert family.support == (0, 2, 3) and family.argmax == (0, 2)


def test_uniform_helpers():
    assert TiltedFamily((0.5, 0.0, 0.5)).law(0.0) == [0.5, 0.0, 0.5]
    # the beta -> inf limit: uniform on argmax p
    assert TiltedFamily((0.4, 0.4, 0.2)).law(math.inf) == [0.5, 0.5, 0.0]


def test_entropy_of_boundary_types_brackets_h():
    # h(l-) > h(p) > h(l+) whenever both edges genuinely bind
    bnd = boundary_types(P, EPS)
    assert shannon_entropy(bnd.l_minus) > H > shannon_entropy(bnd.l_plus)


@pytest.mark.parametrize("alpha", [-1.0, -2.0, math.inf, math.nan])
def test_one_alpha_domain(alpha):
    # every route into the tilted optimiser takes finite alpha > -1 only
    with pytest.raises(DistributionError):
        tilted_type(P, alpha)
    with pytest.raises(DistributionError):
        clamped_optimum(P, EPS, alpha)
    for source in (unconditioned(P), conditioned(P, EPS), uniform_typical(P, EPS)):
        with pytest.raises(DistributionError):
            scgf_model(source).slope(alpha)
