"""Scaled CGFs, rate functions, pmf approximations, binary closed forms."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from guesswork import (
    DistributionError,
    EpsilonInadmissibleError,
    LetterDistribution,
    Source,
    SourceKind,
    admissible_epsilon_interval,
    binary_closed_forms,
    boundary_types,
    conditioned,
    growth_exponents,
    guesswork_pmf_approx,
    legendre_transform,
    scgf_model,
    shannon_entropy,
    typical_window,
    unconditioned,
    uniform_typical,
)

from laws import binary_gaps

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
MW, MC, MU = scgf_model(W), scgf_model(C), scgf_model(U)


def test_source_constructors():
    assert W.kind is SourceKind.UNCONDITIONED and W.epsilon is None
    assert C.kind is SourceKind.CONDITIONED and C.epsilon == EPS
    assert U.kind is SourceKind.UNIFORM_TYPICAL
    with pytest.raises(DistributionError):
        conditioned(P, -0.1)
    with pytest.raises(DistributionError):
        uniform_typical(P, 0.0)


def test_source_validates_its_own_law():
    # a law enters at Source: a tuple is kept as a LetterDistribution, which
    # the oracle reads, and one that does not sum to 1 is refused
    from guesswork import build_guess_table

    with pytest.raises(DistributionError):
        Source(SourceKind.CONDITIONED, (0.7, 0.2), 0.1)
    source = Source(SourceKind.CONDITIONED, (0.7, 0.3), 0.1)
    assert source.p == LetterDistribution((0.7, 0.3))
    assert build_guess_table(source, 10).total_words == 375


@pytest.mark.parametrize("call", [
    lambda: Source(SourceKind.CONDITIONED, P),  # a typical-set kind with no epsilon
    lambda: MW(math.inf),  # Lambda at a non-finite alpha
], ids=["conditioned_without_epsilon", "lambda_at_inf"])
def test_asymptotic_refusals(call):
    with pytest.raises(DistributionError):
        call()


def _count_validations(monkeypatch):
    # the `what` of every _validated_simplex pass, one entry a pass
    from guesswork import entropy

    passes = []
    validated = entropy._validated_simplex

    def counted(values, what):
        passes.append(what)
        return validated(values, what)

    monkeypatch.setattr(entropy, "_validated_simplex", counted)
    return passes


def test_constructor_validates_a_plain_law_once(monkeypatch):
    passes = _count_validations(monkeypatch)
    unconditioned((0.7, 0.3))
    assert passes == ["letter distribution"]


def test_fig1_validates_each_binary_law_once(capsys, monkeypatch):
    # one (p0, 1 - p0) law per point of the 19-point default grid
    from guesswork.cli import main

    passes = _count_validations(monkeypatch)
    assert main(["fig1", "--epsilon", "0.05"]) == 0
    capsys.readouterr()
    assert len(passes) == 19


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
    assert MW(1.0) == pytest.approx(LAMBDA_W_1, abs=1e-12)
    assert MC(1.0) == pytest.approx(LAMBDA_C_1, abs=1e-10)
    assert MU(1.0) == pytest.approx(H_MINUS, abs=1e-10)
    assert MW(0.0) == pytest.approx(0.0, abs=1e-15)
    assert MC(0.0) == pytest.approx(0.0, abs=1e-12)


def test_scgf_constant_below_minus_one():
    for model, g in ((MW, G_W), (MC, G_C), (MU, -H_MINUS)):
        assert model(-1.0) == pytest.approx(g, abs=1e-10)
        assert model(-3.7) == pytest.approx(g, abs=1e-10)


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
    assert legendre_transform(MW, 0.0) == pytest.approx(-G_W, abs=1e-12)
    assert legendre_transform(MC, 0.0) == pytest.approx(-G_C, abs=1e-12)
    x = 0.5 * MC.plateau_width
    assert legendre_transform(MC, x) == pytest.approx(-x - G_C, abs=1e-12)
    # zero of the rate sits at the typical growth rate
    assert legendre_transform(MW, H) == pytest.approx(0.0, abs=1e-9)
    assert legendre_transform(MC, H) == pytest.approx(0.0, abs=1e-9)
    assert legendre_transform(MU, H_MINUS) == pytest.approx(0.0, abs=1e-10)
    # right endpoint equals -tail_intercept
    assert legendre_transform(MW, math.log(2.0)) == pytest.approx(C_MAX - math.log(2.0), abs=1e-10)
    assert legendre_transform(MC, MC.max_slope) == pytest.approx(D_MINUS, abs=1e-10)


def test_rate_function_outside_domain_is_infinite():
    assert legendre_transform(MW, -0.05) == math.inf
    assert legendre_transform(MW, math.log(2.0) + 0.05) == math.inf
    # conditioned rate blows up past its maximal slope even inside [0, log m]
    assert legendre_transform(MC, 0.65) == math.inf
    assert legendre_transform(MU, 0.60) == math.inf


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
    for k in (10, 100):
        base = guesswork_pmf_approx(MU, k, 1)
        assert base == math.exp(k * MU.modal_decay)
        n_max = int(math.exp(k * MU.plateau_width))
        for n in (2, max(2, n_max // 2), n_max):
            assert guesswork_pmf_approx(MU, k, n) == base


def test_pmf_approx_unconditioned_top():
    assert guesswork_pmf_approx(MW, 20, 1) == pytest.approx(0.8**20, rel=1e-12)


def test_pmf_approx_decays_beyond_plateau():
    vals = [guesswork_pmf_approx(MW, 30, n) for n in (1, 10**3, 10**6, 10**8)]
    assert all(v > 0.0 for v in vals)
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(DistributionError):
        guesswork_pmf_approx(MW, 0, 1)


def test_pmf_approx_is_zero_past_max_slope():
    # log(2^10)/10 = log 2 > h(l-): no typical word has so late a rank
    assert math.log(2**10) / 10 > MC.max_slope
    assert guesswork_pmf_approx(MC, 10, 2**10) == 0.0


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
    assert rep.moment_rate_uncond == pytest.approx(MW(1.0), abs=1e-12)
    assert rep.moment_rate_cond == pytest.approx(MC(1.0), abs=1e-10)
    assert rep.middle == pytest.approx(MU(1.0) - MC(1.0), abs=1e-10)


def test_binary_closed_forms_low_excess_regime():
    # p0=0.7, eps=0.1: eta(1) < h + eps, conditioned moment = unconditioned
    rep = binary_closed_forms(0.7, 0.1)
    assert rep.window_excess < 0.0
    assert rep.moment_rate_cond == rep.moment_rate_uncond
    assert rep.middle == rep.bottom
    assert rep.middle > 0.0


@settings(max_examples=150, deadline=None)
@given(st.floats(0.51, 0.99), st.floats(-8.0, -1e-3))
@example(0.525, -6.0)
@example(0.7, -5.0)
@example(0.8, -7.0)
@example(0.8, -8.0)
@example(0.975, -8.0)
@example(0.515625, -0.533203125)
@example(0.51171875, -0.5333507422061503)  # bottom 6.3e-9 near its zero: was 8.6e-12 off
def test_binary_closed_forms_match_mpmath(p0, log_frac):
    # any admissible epsilon from 1e-8 of the interval's top up to just below
    # it: D(l-||p), D(l+||p), top = eps - D(l-||p), bottom and middle (D(l-||p)
    # where the window binds, else bottom) to 1e-12 relative of 60-digit values;
    # as differences of O(1) entropies, middle was 1.4e-4 off at eps = 1e-6 and
    # 1.4 at 1e-8; with log p0 - log p1 as a difference of logs, bottom was
    # 1.3e-12 off at p0 = 0.515625, where it is 1.1e-7; its two O(s^2) terms
    # still cancel nearer its zero, where it is taken at 34 digits
    _assert_binary_matches_mpmath(p0, admissible_epsilon_interval((p0, 1.0 - p0))[1] * 10.0**log_frac)


def test_binary_bottom_near_uniform_matches_mpmath():
    # bottom as h(l-) - 2 log(sqrt p0 + sqrt p1), two numbers near log 2, was
    # 1.4e-11 relative off here
    _assert_binary_matches_mpmath(0.5186846321474264, 4.2379e-4)


def _assert_binary_matches_mpmath(p0, eps):
    rep = binary_closed_forms(p0, eps)
    want = binary_gaps(p0, eps)
    for name in ("div_minus", "div_plus", "top", "middle", "bottom"):
        got = getattr(rep, name)
        assert abs(got - want[name]) <= 1e-12 * abs(want[name]), (name, p0, eps, got)


def test_binary_closed_forms_l_plus_rounding_onto_the_point_mass():
    # eps one rounding below the top, where h - eps meets -log p0: l+ = p0 +
    # eps/spread rounds to 1, and is taken as the family's beta -> inf limit
    # (fig1 --epsilon 0.27465307216702733 --p0-grid 0.75 exited 1 on a math domain error)
    eps = admissible_epsilon_interval((0.75, 0.25))[1] * (1.0 - 2.0**-52)
    rep = binary_closed_forms(0.75, eps)
    assert (rep.l_plus_0, rep.entropy_plus, rep.div_plus) == (1.0, 0.0, -math.log(0.75))


def test_binary_closed_forms_validation():
    lo, hi = admissible_epsilon_interval((0.8, 0.2))
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
    lo, hi = MC.breakpoints
    assert -1.0 < lo < 0.0 < hi < 1.0
    assert MW.breakpoints == (None, None)
    assert MU.breakpoints == (None, None)


def test_scgf_continuous_at_breakpoints():
    for bp in MC.breakpoints:
        delta = 1e-8
        jump = abs(MC(bp + delta) - MC(bp - delta))
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
    lo, hi = MC.breakpoints
    assert MC.slope(hi + 1.0) == MC.max_slope
    assert MC.slope(lo - 1e-3) == MC.plateau_width
    mw = scgf_model(W)
    with pytest.raises(DistributionError):
        mw.slope(-1.0)



def _count_tilting_work(monkeypatch):
    # counts TiltedFamily constructions, calls of its one Newton loop, the
    # cross-entropy targets it solves (edge solves), the loop calls that carry
    # entropy targets (entropy solves) and those targets, its array moment
    # evaluations, the grid passes among them (by their first block, the _GRID
    # tilts from the first on) and TypeVector constructions
    from guesswork import entropy, tilting

    counts = {"families": 0, "loop_calls": 0, "edge_solves": 0, "entropy_solves": 0,
              "entropy_targets": 0, "moments": 0, "grid_passes": 0, "type_vectors": 0}
    family = tilting.TiltedFamily
    family_init, newton, moments = family.__init__, family._newton, family._moments
    post_init = entropy.TypeVector.__post_init__

    def counted_init(self, p):
        counts["families"] += 1
        family_init(self, p)

    def counted_newton(self, etas, hs):
        counts["loop_calls"] += 1
        counts["edge_solves"] += len(etas)
        counts["entropy_solves"] += bool(len(hs))
        counts["entropy_targets"] += len(hs)
        return newton(self, etas, hs)

    def counted_moments(self, beta):
        counts["moments"] += 1
        grid = tilting._GRID
        counts["grid_passes"] += bool(np.shares_memory(beta, grid) and beta[0] == grid[1])
        return moments(self, beta)

    def counted_post_init(self):
        counts["type_vectors"] += 1
        post_init(self)

    monkeypatch.setattr(family, "__init__", counted_init)
    monkeypatch.setattr(family, "_newton", counted_newton)
    monkeypatch.setattr(family, "_moments", counted_moments)
    monkeypatch.setattr(entropy.TypeVector, "__post_init__", counted_post_init)
    return counts


@pytest.mark.parametrize("source", [W, C, U], ids=["unconditioned", "conditioned", "uniform"])
def test_scgf_model_is_one_family_and_no_type_vector(monkeypatch, source):
    counts = _count_tilting_work(monkeypatch)
    scgf_model(source)
    windows = 0 if source.kind is SourceKind.UNCONDITIONED else 1
    # the window solve's Newton steps evaluate moment rows; the limits of the family do not
    assert (counts.pop("moments") > 0) == bool(windows)
    assert counts == {"families": 1, "loop_calls": windows, "edge_solves": 2 * windows,
                      "entropy_solves": 0, "entropy_targets": 0, "grid_passes": windows,
                      "type_vectors": 0}


@pytest.mark.parametrize("source", [W, C, U], ids=["unconditioned", "conditioned", "uniform"])
def test_model_point_evaluations_solve_nothing(monkeypatch, source):
    # Lambda, its slope, the exponent table and the plateau pmf read the edge
    # lines or TiltedFamily.line: no Newton loop and no numpy moment row
    model = scgf_model(source)
    counts = _count_tilting_work(monkeypatch)
    model(0.3)
    model.slope(0.0)
    model.exponents()
    guesswork_pmf_approx(model, 20, 1)
    assert counts == {"families": 0, "loop_calls": 0, "edge_solves": 0, "entropy_solves": 0,
                      "entropy_targets": 0, "moments": 0, "grid_passes": 0, "type_vectors": 0}


@pytest.mark.parametrize("probs, eps", [
    ((0.8, 0.2), 0.1),  # both edges finite
    ((0.8, 0.2), 0.5),  # both edges at a limit of the family
    ((0.6, 0.0, 0.4), 0.15),  # the h(p) + eps edge at its limit
    # h(p) - eps rounds an ulp past c_max: no root, once 100 passes of bisection
    ((0.5000000000043857, 0.49999999999561434), 3.97e-17),
])
def test_window_is_at_most_one_loop_call(monkeypatch, probs, eps):
    from guesswork.tilting import TiltedFamily

    family = TiltedFamily(probs)
    counts = _count_tilting_work(monkeypatch)
    beta_minus, beta_plus = family.window(*typical_window(probs, eps))
    solved = (beta_minus > 0.0) + (beta_plus < math.inf)
    assert counts["loop_calls"] <= 1 and counts["edge_solves"] == solved, counts
    assert counts["moments"] <= (6 if solved else 0), counts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6), st.integers(-1, 5),
       st.floats(0.0, 1.0, exclude_max=True))
@example([1.0, 0.34375], 1, 0.99999)  # beta- = 9.1e-6, residual an ulp off from pass 2: was 13
def test_window_solve_takes_at_most_six_passes(raw, zero, frac):
    # the grid pass and at most five Newton passes for the solved edges, for
    # any admissible eps (an optional zero letter)
    from unittest import mock

    from guesswork.tilting import TiltedFamily

    if zero < len(raw) - 1:
        raw[zero] = 0.0
    p = LetterDistribution(tuple(v / math.fsum(raw) for v in raw))
    low, top = admissible_epsilon_interval(p)
    eps = low + frac * (top - low)
    assume(low < eps < top)
    family, passes, moments = TiltedFamily(p), [0], TiltedFamily._moments

    def counted_moments(self, beta):
        passes[0] += 1
        return moments(self, beta)

    with mock.patch.object(TiltedFamily, "_moments", counted_moments):
        family.window(*typical_window(p, eps))
    assert passes[0] <= 6


@pytest.mark.parametrize("p, epsilon", [("0.8,0.2", "0.1"), ("0.5,0.3,0.2", "0.07")])
def test_analyze_builds_one_family_per_law(capsys, monkeypatch, p, epsilon):
    # guessctl analyze: one family, built by _scgf_models and shared by the
    # law's three models (the admissibility check builds none); the uniform
    # model and the boundary types read the conditioned model's window, so
    # only its two edges are solved
    from guesswork.cli import main

    counts = _count_tilting_work(monkeypatch)
    assert main(["analyze", "--p", p, "--epsilon", epsilon]) == 0
    capsys.readouterr()
    assert counts["families"] == 1 and counts["edge_solves"] <= 2, counts
    assert counts["loop_calls"] <= 1 and counts["grid_passes"] <= 1, counts


def test_fig2_solves_each_curve_in_one_call(capsys, monkeypatch):
    # guessctl fig2, per request: one family (the admissibility check builds
    # none), one _scgf_models call that builds the three models and their
    # curves, and one Newton loop call with one grid pass, which solves the
    # conditioned window's two edges (an admissible eps puts both at finite
    # tilts) and every grid point inside the family's interior
    # (log |argmax p|, log |support|); no other solve
    from guesswork import asymptotics, cli
    from guesswork.entropy import as_distribution

    calls, models = [], asymptotics._scgf_models

    def counted_models(sources, xs=None):
        calls.append(("_scgf_models", len(sources), None if xs is None else len(xs)))
        return models(sources, xs)

    # cmd_fig2 resolves it on the module it imports in the handler
    monkeypatch.setattr(asymptotics, "_scgf_models", counted_models)
    counts = _count_tilting_work(monkeypatch)
    for p, epsilon in [("0.5,0.3,0.2", "0.07"), ("0.8,0.2", "0.1"), ("0.6,0,0.4", "0.03")]:
        law = as_distribution(tuple(map(float, p.split(","))))
        family = asymptotics.TiltedFamily(law)
        (width, _), (slope, _) = family.line(math.inf), family.line(0.0)
        xs = np.linspace(0.0, math.log(law.m), 400)
        interior = int(np.count_nonzero((xs > width) & (xs < slope - 1e-12)))
        argv = ["fig2", "--p", p, "--epsilon", epsilon, "--x-points", "400"]
        for fmt in ("csv", "json"):
            calls.clear()
            counts.update(dict.fromkeys(counts, 0))
            assert cli.main([*argv, "--format", fmt]) == 0
            capsys.readouterr()
            assert calls == [("_scgf_models", 3, 400)], (p, fmt)
            assert {**counts, "moments": counts["moments"] > 0} == {
                "families": 1, "loop_calls": 1, "edge_solves": 2, "entropy_solves": 1,
                "entropy_targets": interior, "moments": True, "grid_passes": 1,
                "type_vectors": 0}, (p, fmt)


def test_fig2_rates_match_each_legendre_transform():
    # _scgf_models with a grid gives, field by field and bit for bit, the
    # models it builds without one, and each curve as that model's own
    # legendre_transform gives it
    from guesswork.asymptotics import _scgf_models

    p = (0.5, 0.3, 0.2)
    sources = [unconditioned(p), conditioned(p, 0.07), uniform_typical(p, 0.07)]
    xs = np.linspace(0.0, math.log(3.0), 400)
    models, rates = _scgf_models(sources, xs)
    for model, alone in zip(models, _scgf_models(sources)):
        assert (model.source, model.window, model.edge_lines, model.modal_decay) == (
            alone.source, alone.window, alone.edge_lines, alone.modal_decay)
    for model, rate in zip(models, rates):
        assert rate.tobytes() == legendre_transform(model, xs).tobytes()


@pytest.mark.parametrize("kind", range(3), ids=["unconditioned", "conditioned", "uniform"])
def test_legendre_transform_solves_its_own_interior(monkeypatch, kind):
    # on a 400-point grid, legendre_transform makes one Newton loop call
    # whose entropy targets are exactly its model's interior, and none for
    # the uniform model, whose interior is empty; its values are the rates
    # fig2's shared solve (_scgf_models with the grid) gives, bit for bit
    from guesswork import asymptotics, tilting

    p = (0.5, 0.3, 0.2)
    sources = [unconditioned(p), conditioned(p, 0.07), uniform_typical(p, 0.07)]
    xs = np.linspace(0.0, math.log(3.0), 400)
    models, rates = asymptotics._scgf_models(sources, xs)
    model = models[kind]
    interior = (xs > model.plateau_width) & (xs < model.max_slope - 1e-12)
    assert interior.any() == (kind != 2)
    targets, newton = [], tilting.TiltedFamily._newton

    def recorded_newton(self, etas, hs):
        targets.append((len(etas), np.array(hs)))
        return newton(self, etas, hs)

    monkeypatch.setattr(tilting.TiltedFamily, "_newton", recorded_newton)
    out = legendre_transform(model, xs)
    if kind == 2:
        assert targets == []
    else:
        [(edges, hs)] = targets
        assert edges == 0 and hs.tobytes() == xs[interior].tobytes()
    assert out.tobytes() == rates[kind].tobytes()


@pytest.mark.parametrize("source", [W, C, U], ids=["unconditioned", "conditioned", "uniform"])
def test_legendre_transform_array_matches_point_calls(source):
    # one array across every piece of the domain gives, bit for bit, the
    # values of the one-point calls; a float in gives a float out
    model = scgf_model(source)
    w, s, log_m = model.plateau_width, model.max_slope, math.log(2.0)
    xs = np.array([
        -0.1, -1e-13, 0.0, 0.5 * w, w, w + 1e-9, 0.5 * (w + s), s - 1e-6,
        s, s + 1e-13, 0.5 * (s + log_m), log_m, log_m + 1e-13, log_m + 0.1,
    ])
    rates = legendre_transform(model, xs)
    points = [legendre_transform(model, float(x)) for x in xs]
    assert all(type(r) is float for r in points)
    assert rates.shape == xs.shape and rates.tolist() == points
    assert rates[0] == rates[-1] == math.inf
    assert legendre_transform(model, np.array([])).shape == (0,)
