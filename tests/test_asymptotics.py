"""Scaled CGFs, rate functions, pmf approximations, binary closed forms."""

import math

import pytest

from guesswork import (
    DistributionError,
    EpsilonInadmissibleError,
    LetterDistribution,
    Regime,
    SourceKind,
    admissible_epsilon_binary,
    binary_closed_forms,
    boundary_types,
    conditioned,
    growth_exponents,
    guesswork_pmf_approx,
    legendre_transform,
    rate_function,
    scgf,
    scgf_model,
    shannon_entropy,
    source_breakpoints,
    unconditioned,
    uniform_typical,
)

P = LetterDistribution((0.8, 0.2))
EPS = 0.1
H = 0.5004024235381879
H_MINUS = 0.5853705712676309
H_PLUS = 0.3823083894659230
D_MINUS = 0.0150318522705569
LAMBDA_W_1 = 0.5877866649021191  # 2 log(sqrt(0.8)+sqrt(0.2))
LAMBDA_C_1 = 0.5703387189970741  # h(l-) - D(l-||p)
G_W = -0.2231435513142098  # log 0.8
G_C = -0.4004024235381879  # -(h - eps)
C_MAX = 0.9162907318741551

W = unconditioned(P)
C = conditioned(P, EPS)
U = uniform_typical(P, EPS)


def test_source_constructors():
    assert W.kind is SourceKind.UNCONDITIONED and W.epsilon is None
    assert C.kind is SourceKind.CONDITIONED and C.epsilon == EPS
    assert U.kind is SourceKind.UNIFORM_TYPICAL
    with pytest.raises(DistributionError):
        conditioned(P, -0.1)
    with pytest.raises(DistributionError):
        uniform_typical(P, 0.0)


def test_scgf_model_parameters():
    mw = scgf_model(W)
    assert mw.modal_decay == pytest.approx(G_W, abs=1e-12)
    assert mw.plateau_width == 0.0
    assert mw.max_slope == pytest.approx(math.log(2.0), abs=1e-15)
    assert mw.tail_intercept == pytest.approx(math.log(2.0) - C_MAX, abs=1e-12)

    mc = scgf_model(C)
    assert mc.modal_decay == pytest.approx(G_C, abs=1e-12)
    assert mc.plateau_width == pytest.approx(H_PLUS, abs=1e-10)
    assert mc.max_slope == pytest.approx(H_MINUS, abs=1e-10)
    assert mc.tail_intercept == pytest.approx(-D_MINUS, abs=1e-10)

    mu = scgf_model(U)
    assert mu.modal_decay == pytest.approx(-H_MINUS, abs=1e-10)
    assert mu.plateau_width == mu.max_slope == pytest.approx(H_MINUS, abs=1e-10)
    assert mu.tail_intercept == 0.0


def test_scgf_frozen_values():
    assert scgf(W, 1.0) == pytest.approx(LAMBDA_W_1, abs=1e-12)
    assert scgf(C, 1.0) == pytest.approx(LAMBDA_C_1, abs=1e-10)
    assert scgf(U, 1.0) == pytest.approx(H_MINUS, abs=1e-10)
    assert scgf(W, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert scgf(C, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_scgf_constant_below_minus_one():
    for source, g in ((W, G_W), (C, G_C), (U, -H_MINUS)):
        assert scgf(source, -1.0) == pytest.approx(g, abs=1e-10)
        assert scgf(source, -3.7) == pytest.approx(g, abs=1e-10)


def test_scgf_convex():
    model = scgf_model(C)
    for a, b in ((-0.5, 0.5), (0.0, 2.0), (0.5, 3.0)):
        mid = 0.5 * (a + b)
        assert model(mid) <= 0.5 * (model(a) + model(b)) + 1e-12


def test_growth_exponents():
    ew = growth_exponents(W)
    assert ew.mean_log_rate == pytest.approx(H, abs=1e-9)
    assert ew.moment_rate == pytest.approx(LAMBDA_W_1, abs=1e-12)
    assert ew.window_excess is None

    ec = growth_exponents(C)
    assert ec.mean_log_rate == pytest.approx(H, abs=1e-9)
    assert ec.moment_rate == pytest.approx(LAMBDA_C_1, abs=1e-10)
    assert ec.window_excess == pytest.approx(0.0848392481493187, abs=1e-10)

    eu = growth_exponents(U)
    assert eu.mean_log_rate == pytest.approx(H_MINUS, abs=1e-9)
    assert eu.moment_rate == pytest.approx(H_MINUS, abs=1e-10)


def test_jensen_ordering():
    for source in (W, C, U):
        e = growth_exponents(source)
        assert e.moment_rate >= e.mean_log_rate - 1e-9


def test_rate_function_plateau_and_edges():
    # plateau: rate(x) = -x - g on [0, plateau_width]
    assert rate_function(W, 0.0) == pytest.approx(-G_W, abs=1e-12)
    assert rate_function(C, 0.0) == pytest.approx(-G_C, abs=1e-12)
    mc = scgf_model(C)
    x = 0.5 * mc.plateau_width
    assert legendre_transform(mc, x) == pytest.approx(-x - G_C, abs=1e-12)
    # zero of the rate sits at the typical growth rate
    assert rate_function(W, H) == pytest.approx(0.0, abs=1e-9)
    assert rate_function(C, H) == pytest.approx(0.0, abs=1e-9)
    mu = scgf_model(U)
    assert legendre_transform(mu, H_MINUS) == pytest.approx(0.0, abs=1e-10)
    # right endpoint equals -tail_intercept
    assert rate_function(W, math.log(2.0)) == pytest.approx(C_MAX - math.log(2.0), abs=1e-10)
    assert legendre_transform(mc, mc.max_slope) == pytest.approx(D_MINUS, abs=1e-10)


def test_rate_function_outside_domain_is_infinite():
    assert rate_function(W, -0.05) == math.inf
    assert rate_function(W, math.log(2.0) + 0.05) == math.inf
    # conditioned rate blows up past its maximal slope even inside [0, log m]
    assert rate_function(C, 0.65) == math.inf
    assert rate_function(U, 0.60) == math.inf


def test_rate_function_recovers_scgf():
    # Lambda(alpha) = sup_x (x alpha - rate(x)), located by ternary search
    model = scgf_model(W)
    for alpha in (-0.5, 0.3, 1.0, 2.0):
        lo, hi = 0.0, model.max_slope
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if alpha * m1 - legendre_transform(model, m1) < alpha * m2 - legendre_transform(model, m2):
                lo = m1
            else:
                hi = m2
        x = 0.5 * (lo + hi)
        back = alpha * x - legendre_transform(model, x)
        assert back == pytest.approx(model(alpha), abs=1e-8)


def test_pmf_approx_plateau_identity():
    # uniform source: every n on the plateau returns the same float
    mu = scgf_model(U)
    for k in (10, 100):
        base = guesswork_pmf_approx(U, k, 1)
        assert base == math.exp(k * mu.modal_decay)
        n_max = int(math.exp(k * mu.plateau_width))
        for n in (2, max(2, n_max // 2), n_max):
            assert guesswork_pmf_approx(U, k, n) == base


def test_pmf_approx_unconditioned_top():
    assert guesswork_pmf_approx(W, 20, 1) == pytest.approx(0.8**20, rel=1e-12)


def test_pmf_approx_decays_beyond_plateau():
    vals = [guesswork_pmf_approx(W, 30, n) for n in (1, 10**3, 10**6, 10**8)]
    assert all(v > 0.0 for v in vals)
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(DistributionError):
        guesswork_pmf_approx(W, 0, 1)


def test_binary_closed_forms_frozen():
    rep = binary_closed_forms(0.8, 0.1)
    assert rep.l_minus_0 == pytest.approx(0.7278652479555518, abs=1e-14)
    assert rep.l_plus_0 == pytest.approx(0.8721347520444482, abs=1e-14)
    assert rep.entropy_p == pytest.approx(H, abs=1e-14)
    assert rep.entropy_minus == pytest.approx(H_MINUS, abs=1e-14)
    assert rep.entropy_plus == pytest.approx(H_PLUS, abs=1e-14)
    assert rep.div_minus == pytest.approx(D_MINUS, abs=1e-14)
    assert rep.moment_rate_uncond == pytest.approx(LAMBDA_W_1, abs=1e-14)
    assert rep.window_excess == pytest.approx(0.0848392481493187, abs=1e-13)
    assert rep.moment_rate_cond == pytest.approx(LAMBDA_C_1, abs=1e-13)
    assert rep.top == pytest.approx(0.0849681477294431, abs=1e-13)
    assert rep.middle == pytest.approx(D_MINUS, abs=1e-13)
    assert rep.bottom == pytest.approx(-0.0024160936344881, abs=1e-13)


def test_binary_closed_forms_matches_general_route():
    rep = binary_closed_forms(0.8, 0.1)
    assert rep.moment_rate_uncond == pytest.approx(scgf(W, 1.0), abs=1e-12)
    assert rep.moment_rate_cond == pytest.approx(scgf(C, 1.0), abs=1e-10)
    assert rep.middle == pytest.approx(scgf(U, 1.0) - scgf(C, 1.0), abs=1e-10)


def test_binary_closed_forms_low_excess_regime():
    # p0=0.7, eps=0.1: eta(1) < h + eps, conditioned moment = unconditioned
    rep = binary_closed_forms(0.7, 0.1)
    assert rep.window_excess < 0.0
    assert rep.moment_rate_cond == rep.moment_rate_uncond
    assert rep.middle == rep.bottom
    assert rep.middle > 0.0


def test_binary_closed_forms_validation():
    lo, hi = admissible_epsilon_binary(0.8)
    assert lo == 0.0
    assert hi == pytest.approx(0.2772588722239781, abs=1e-13)
    with pytest.raises(EpsilonInadmissibleError):
        binary_closed_forms(0.8, hi)
    with pytest.raises(EpsilonInadmissibleError):
        binary_closed_forms(0.55, 0.1)
    with pytest.raises(DistributionError):
        binary_closed_forms(0.5, 0.01)
    with pytest.raises(DistributionError):
        binary_closed_forms(1.0, 0.01)


def test_source_breakpoints():
    lo, hi = source_breakpoints(C)
    assert -1.0 < lo < 0.0 < hi < 1.0
    assert source_breakpoints(W) == (None, None)
    assert source_breakpoints(U) == (None, None)


def test_scgf_continuous_at_breakpoints():
    model = scgf_model(C)
    for bp in source_breakpoints(C):
        delta = 1e-8
        jump = abs(model(bp + delta) - model(bp - delta))
        assert jump < 1e-7


def test_uniform_p_all_sources_coincide():
    # degenerate case: every word typical, all exponents log m
    p = LetterDistribution((0.5, 0.5))
    for source in (unconditioned(p), conditioned(p, 0.1), uniform_typical(p, 0.1)):
        e = growth_exponents(source)
        assert e.moment_rate == pytest.approx(math.log(2.0), abs=1e-10)
        assert e.mean_log_rate == pytest.approx(math.log(2.0), abs=1e-9)
        model = scgf_model(source)
        assert model.modal_decay == pytest.approx(-math.log(2.0), abs=1e-12)
        assert model.plateau_width == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("probs, eps", [
    ((0.8, 0.2), 0.1),
    ((0.5, 0.3, 0.2), 0.07),
    ((0.35, 0.25, 0.2, 0.12, 0.08), 0.15),
    ((0.6, 0.0, 0.4), 0.05),
])
def test_mean_log_rate_is_exact_slope_at_zero(probs, eps):
    # Lambda'(0) is the entropy of the optimiser at alpha = 0: p itself, or
    # l- for the uniform source, with no finite-difference error
    p = LetterDistribution(probs)
    h = shannon_entropy(p)
    for source in (unconditioned(p), conditioned(p, eps)):
        assert abs(growth_exponents(source).mean_log_rate - h) <= 1e-15
    h_minus = shannon_entropy(boundary_types(p, eps).l_minus)
    assert abs(growth_exponents(uniform_typical(p, eps)).mean_log_rate - h_minus) <= 1e-15


def test_optimum_regimes_follow_the_clamp_window():
    lo, hi = source_breakpoints(C)
    mc = scgf_model(C)
    assert mc.optimum(0.0).regime is Regime.INTERIOR
    assert mc.optimum(0.0).type_vector.freqs == pytest.approx(P.probs, abs=1e-14)
    assert mc.optimum(hi + 1e-6).regime is Regime.UPPER_CLAMP
    assert mc.optimum(lo - 1e-6).regime is Regime.LOWER_CLAMP
    assert mc.slope(hi + 1.0) == mc.max_slope
    assert mc.slope(lo - 1e-3) == mc.plateau_width
    # the uniform source is pinned at l- for every alpha
    mu = scgf_model(U)
    for alpha in (-0.9, 0.0, 5.0):
        opt = mu.optimum(alpha)
        assert opt.regime is Regime.UPPER_CLAMP
        assert opt.type_vector == mu.boundary.l_minus
    # the unconditioned optimiser is never clamped
    mw = scgf_model(W)
    assert all(mw.optimum(a).regime is Regime.INTERIOR for a in (-0.99, 0.0, 1e6))
    with pytest.raises(DistributionError):
        mw.slope(-1.0)
