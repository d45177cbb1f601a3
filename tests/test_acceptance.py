"""Acceptance gate: the nine package-level criteria, one pass/fail line each.

Every criterion is its own test, so `pytest -v tests/test_acceptance.py`
reports them one by one; run with -s to also see the printed summary lines.
Tolerances are stated inline; timing budgets are generous multiples of
observed cold-cache runtimes so the gate stays meaningful on slow machines
without going flaky on fast ones.
"""

import json
import math
import random
import time

import guesswork as gw
from guesswork.cli import main as cli_main

from laws import kl_divergence

P = gw.LetterDistribution((0.8, 0.2))
EPS = 0.1

H = 0.5004024235381879
H_MINUS = 0.5853705712676309
H_PLUS = 0.3823083894659230
D_MINUS = 0.0150318522705569


def emit(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_1_boundary_bisection_matches_closed_form():
    spread = math.log(0.8) - math.log(0.2)
    closed_minus = 0.8 - EPS / spread
    closed_plus = 0.8 + EPS / spread
    bnd = gw.boundary_types(P, EPS)  # warm-up
    reps = 50
    t0 = time.perf_counter()
    for _ in range(reps):
        bnd = gw.boundary_types(P, EPS)
    per_call = (time.perf_counter() - t0) / reps
    err_minus = abs(bnd.l_minus.freqs[0] - closed_minus)
    err_plus = abs(bnd.l_plus.freqs[0] - closed_plus)
    ok = err_minus < 1e-9 and err_plus < 1e-9 and per_call < 1e-3
    emit(1, ok,
         f"|l- err|={err_minus:.2e} |l+ err|={err_plus:.2e} "
         f"bisection {per_call * 1e3:.3f} ms/call (< 1 ms)")


def test_criterion_2_exponent_table():
    W = gw.unconditioned(P)
    C = gw.conditioned(P, EPS)
    U = gw.uniform_typical(P, EPS)
    mw, mc, mu = gw.scgf_model(W), gw.scgf_model(C), gw.scgf_model(U)
    checks = [
        ("Lambda_W(1)", mw(1.0), 0.5877866649021191, 1e-6),
        ("Lambda_U(1)", mu(1.0), H_MINUS, 1e-6),
        ("Lambda_C(1)", mc(1.0), 0.5703387189970741, 1e-6),
        ("Lambda_W'(0)", gw.growth_exponents(W).mean_log_rate, H, 1e-5),
        ("Lambda_C'(0)", gw.growth_exponents(C).mean_log_rate, H, 1e-5),
        ("Lambda_U'(0)", gw.growth_exponents(U).mean_log_rate, H_MINUS, 1e-5),
        ("g_W", mw.modal_decay, -0.2231435513142098, 1e-6),
        ("g_U", mu.modal_decay, -H_MINUS, 1e-6),
        ("g_C", mc.modal_decay, -0.4004024235381879, 1e-6),
        ("gamma_W", mw.plateau_width, 0.0, 1e-6),
        ("gamma_U", mu.plateau_width, H_MINUS, 1e-6),
        ("gamma_C", mc.plateau_width, H_PLUS, 1e-6),
    ]
    bad = [name for name, got, want, tol in checks if abs(got - want) > tol]
    emit(2, not bad,
         f"{len(checks) - len(bad)}/{len(checks)} exponent entries within "
         f"tolerance" + (f"; failing: {bad}" if bad else ""))


def test_criterion_3_ordering_claims_on_grid():
    t0 = time.perf_counter()
    grid = [0.55 + 0.05 * i for i in range(9)]
    admissible = 0
    orderings_ok = True
    gap_ok = True
    bottom_at_08 = None
    for p0 in grid:
        lo, hi = gw.admissible_epsilon_interval((p0, 1.0 - p0))
        if not (lo < EPS < hi):
            continue
        admissible += 1
        rep = gw.binary_closed_forms(p0, EPS)
        # uniform-vs-conditioned first-moment gap is strictly positive
        gap_ok = gap_ok and (rep.entropy_minus - rep.moment_rate_cond > 0.0)
        orderings_ok = orderings_ok and (
            rep.entropy_minus > rep.entropy_p > rep.entropy_plus
        )
        if abs(p0 - 0.8) < 1e-12:
            bottom_at_08 = rep.bottom
    elapsed = time.perf_counter() - t0
    bottom_ok = bottom_at_08 is not None and abs(
        bottom_at_08 - (-0.0024160936344881)
    ) < 1e-6
    ok = admissible >= 6 and gap_ok and orderings_ok and bottom_ok and elapsed < 1.0
    bottom_text = "missing" if bottom_at_08 is None else f"{bottom_at_08:.10f}"
    emit(3, ok,
         f"{admissible} admissible grid points; gap>0 {gap_ok}; "
         f"h(l-)>h>h(l+) {orderings_ok}; bottom(0.8)={bottom_text} "
         f"(+-1e-6); {elapsed * 1e3:.0f} ms (< 1 s)")


def test_criterion_4_oracle_convergence_trends():
    t0 = time.perf_counter()
    sources = [gw.unconditioned(P), gw.conditioned(P, EPS), gw.uniform_typical(P, EPS)]
    chains = [(6, 10, 14), (50, 200, 1000)]
    n_pass = 0
    failures = []
    for source in sources:
        series = [("scgf", a) for a in (-0.5, 0.5, 1.0, 2.0)]
        series += [("mean_log", None), ("top_prob", None), ("modal_count", None)]
        if source.kind is not gw.SourceKind.UNCONDITIONED:
            series.append(("typical_size", None))
        for qty, a in series:
            for ks in chains:
                pts = gw.convergence_series(
                    source, qty, ks, alpha=1.0 if a is None else a
                )
                if gw.trend_holds(pts):
                    n_pass += 1
                else:
                    failures.append((source.kind.name, qty, a, ks))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    emit(4, ok,
         f"{n_pass} series shrink their gap from k={chains[0][0]} to "
         f"k={chains[1][-1]}; {elapsed:.1f} s (< 30 s)"
         + (f"; failures: {failures}" if failures else ""))


def test_criterion_5_method_of_types_sandwiches():
    C = gw.conditioned(P, EPS)
    n_checks = 0
    violations = []
    for k in range(4, 15):
        census = gw.typical_set_census(P, EPS, k)
        n_checks += 1
        if not (census.max_type_count <= census.cardinality
                <= (k + 1) ** 2 * census.max_type_count):
            violations.append(("union", k))
        for alpha in (0.5, 1.0):
            n_checks += 1
            if not gw.moment_sandwich(C, k, alpha).holds:
                violations.append(("upper", k, alpha))
        for alpha in (-0.5, 0.0):
            n_checks += 1
            if not gw.moment_sandwich(C, k, alpha).holds:
                violations.append(("lower", k, alpha))
    emit(5, not violations,
         f"{n_checks} exact inequalities over k=4..14, "
         f"{len(violations)} violations")


def test_criterion_6_naive_vs_type_based_oracles():
    rng = random.Random(20260822)
    done = 0
    tried = 0
    mismatches = []
    while done < 20 and tried < 500:
        tried += 1
        m = rng.choice((2, 3))
        raw = [rng.uniform(0.1, 1.0) for _ in range(m)]
        total = math.fsum(raw)
        p = gw.LetterDistribution(tuple(v / total for v in raw))
        epsilon = rng.uniform(0.02, 0.3)
        k = rng.randint(3, 12)
        kind = rng.choice(("unconditioned", "conditioned", "uniform"))
        if kind == "unconditioned":
            source = gw.unconditioned(p)
        else:
            if gw.typical_set_census(p, epsilon, k).is_empty:
                continue
            source = (gw.conditioned(p, epsilon) if kind == "conditioned"
                      else gw.uniform_typical(p, epsilon))
        if not gw.naive_enumeration_crosscheck(source, k):
            mismatches.append((kind, m, k))
        done += 1
    ok = done == 20 and not mismatches
    emit(6, ok,
         f"{done} randomized (p, eps, k, kind) cases agree within 1e-9"
         + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_7_uniform_plateau_identity():
    mu = gw.scgf_model(gw.uniform_typical(P, EPS))
    h_min = gw.shannon_entropy(gw.boundary_types(P, EPS).l_minus)
    exact = True
    for k in (10, 100):
        want = math.exp(-k * h_min)
        n_edge = int(math.exp(k * h_min))
        for n in (1, 2, max(2, n_edge // 3), n_edge):
            if gw.guesswork_pmf_approx(mu, k, n) != want:
                exact = False
    emit(7, exact,
         "P(G=n) == exp(-k h(l-)) bitwise across the plateau at k in {10, 100}")


def test_criterion_8_regime_threshold_sign_correction():
    C = gw.conditioned(P, EPS)
    model = gw.scgf_model(C)
    h = gw.shannon_entropy(P)
    jumps = [abs(model(bp + 1e-8) - model(bp - 1e-8))
             for bp in model.breakpoints]
    deriv = gw.growth_exponents(C).mean_log_rate
    implemented_ok = max(jumps) < 1e-7 and abs(deriv - h) < 1e-5

    # The selector with the literal printed thresholds compares the tilted
    # cross entropy (always >= -log max p > 0) against -h(p) -+ eps < 0, so
    # at alpha = 0 it pins the optimiser to l- and the derivative comes out
    # h(l-), not h(p). That contradiction is what rules the reading out.
    bnd = gw.boundary_types(P, EPS)

    def literal_scgf(alpha):
        eta = gw.cross_entropy(gw.tilted_type(P, alpha), P)
        if eta >= -h + EPS:
            l = bnd.l_minus
        elif eta <= -h - EPS:
            l = bnd.l_plus
        else:
            l = gw.tilted_type(P, alpha)
        return alpha * gw.shannon_entropy(l) - kl_divergence(l, P)

    step = 1e-6
    literal_deriv = (literal_scgf(step) - literal_scgf(-step)) / (2.0 * step)
    literal_wrong = abs(literal_deriv - h) > 1e-3
    ok = implemented_ok and literal_wrong
    emit(8, ok,
         f"corrected: jump {max(jumps):.1e} (<1e-7), |Lambda'(0)-h(p)|="
         f"{abs(deriv - h):.1e} (<1e-5); literal thresholds give "
         f"Lambda'(0)={literal_deriv:.6f} = h(l-), rejected")


def test_criterion_9_figure_reproduction(capsys):
    fig1_argv = ["fig1", "--epsilon", "0.1"]
    fig2_argv = ["fig2", "--p", "0.8,0.2", "--epsilon", "0.1"]
    code1 = cli_main(fig1_argv)
    fig1_a = capsys.readouterr().out
    code2 = cli_main(fig1_argv)
    fig1_b = capsys.readouterr().out
    code3 = cli_main(fig2_argv)
    fig2_a = capsys.readouterr().out
    code4 = cli_main(fig2_argv)
    fig2_b = capsys.readouterr().out
    deterministic = (
        code1 == code2 == code3 == code4 == 0
        and fig1_a == fig1_b and fig2_a == fig2_b
    )

    middle_positive = True
    for line in fig1_a.splitlines():
        if line.startswith("#") or line.startswith("p0,"):
            continue
        fields = line.split(",")
        if fields[4] == "":
            middle_positive = middle_positive and float(fields[2]) > 0.0

    g_want = {
        "unconditioned": -0.2231435513142098,
        "conditioned": -0.4004024235381879,
        "uniform": -H_MINUS,
    }
    gamma_want = {
        "unconditioned": 0.0,
        "conditioned": H_PLUS,
        "uniform": H_MINUS,
    }
    lines = fig2_a.splitlines()
    first_row = next(l for l in lines if not l.startswith(("#", "x,"))).split(",")
    names = ("unconditioned", "conditioned", "uniform")
    intercepts_ok = all(
        abs(float(first_row[1 + i]) - g_want[n]) < 1e-6 for i, n in enumerate(names)
    )
    width_line = next(l for l in lines if l.startswith("# plateau_width:"))
    widths = dict(
        part.split("=") for part in width_line.split(":", 1)[1].split()
    )
    widths_ok = all(abs(float(widths[n]) - gamma_want[n]) < 1e-6 for n in names)

    ok = deterministic and middle_positive and intercepts_ok and widths_ok
    emit(9, ok,
         f"fig1/fig2 byte-identical across runs {deterministic}; fig1 middle"
         f" > 0 everywhere admissible {middle_positive}; fig2 x=0 intercepts"
         f" {intercepts_ok}; plateau widths {widths_ok}")
