"""guessctl subcommands: formats, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from guesswork import DistributionError, typical_set_census
from guesswork.cli import _fmt, _fmt_column, _jnum, _json_value, _table, build_parser, main

from laws import binary_gaps

H = 0.5004024235381879
H_MINUS = 0.5853705712676309


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_json_report(capsys):
    code, out, err = run(
        capsys, ["analyze", "--p", "0.8,0.2", "--epsilon", "0.1"]
    )
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["entropy"] == pytest.approx(H, abs=1e-8)
    assert rep["boundary"]["exists_minus"] and rep["boundary"]["exists_plus"]
    assert rep["boundary"]["l_minus"][0] == pytest.approx(0.727865248, abs=1e-8)
    assert rep["unconditioned"]["moment_rate"] == pytest.approx(0.587786665, abs=1e-8)
    assert rep["conditioned"]["moment_rate"] == pytest.approx(0.570338719, abs=1e-8)
    assert rep["uniform"]["moment_rate"] == pytest.approx(H_MINUS, abs=1e-8)
    assert rep["conditioned"]["window_excess"] == pytest.approx(0.0848392481, abs=1e-8)
    bps = rep["conditioned"]["breakpoints"]
    assert -1.0 < bps["alpha_low"] < 0.0 < bps["alpha_high"] < 1.0


def test_analyze_deterministic(capsys):
    argv = ["analyze", "--p", "0.8,0.2", "--epsilon", "0.1"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_analyze_csv_flatten(capsys):
    code, out, _ = run(
        capsys, ["analyze", "--p", "0.8,0.2", "--epsilon", "0.1", "--format", "csv"]
    )
    assert code == 0
    keys = {line.split(",", 1)[0] for line in out.splitlines() if "," in line}
    assert "conditioned.moment_rate" in keys
    assert "boundary.l_minus.0" in keys


def test_analyze_uniform_source_degenerate(capsys):
    code, out, _ = run(capsys, ["analyze", "--p", "0.5,0.5", "--epsilon", "0.1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["boundary"]["clamped_to_log_m"]
    log2 = math.log(2.0)
    for kind in ("unconditioned", "conditioned", "uniform"):
        assert rep[kind]["moment_rate"] == pytest.approx(log2, abs=1e-8)
        assert rep[kind]["mean_log_rate"] == pytest.approx(log2, abs=1e-6)


def test_analyze_existence_flags_follow_the_clamp_window(capsys):
    # an admissible eps within _EDGE_TOL of the interval's end: lo = h - eps
    # is treated as the beta -> inf limit, so l_plus is the uniform law on
    # argmax p, its flag is cleared and the lower clamp never binds
    code, out, _ = run(capsys, ["analyze", "--p", "0.8,0.2", "--epsilon", "0.2772588722239504"])
    assert code == 0
    rep = json.loads(out)
    assert rep["boundary"]["l_plus"] == [1.0, 0.0]
    assert not rep["boundary"]["exists_plus"]
    assert rep["conditioned"]["breakpoints"]["alpha_low"] is None
    assert rep["boundary"]["exists_minus"] and not rep["boundary"]["clamped_to_log_m"]


def test_analyze_inadmissible_epsilon(capsys):
    code, out, err = run(capsys, ["analyze", "--p", "0.8,0.2", "--epsilon", "0.5"])
    assert code == 1 and out == ""
    assert "epsilon inadmissible" in err
    assert "0.277258872" in err


def test_bad_probabilities(capsys):
    code, _, err = run(capsys, ["analyze", "--p", "0.8,0.1", "--epsilon", "0.1"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--p", "0.8,x", "--epsilon", "0.1"],
     "could not parse probabilities from '0.8,x'"),
    (["exact-compare", "--p", "0.8,0.2", "--kind", "conditioned", "--k", "10"],
     "--epsilon is required for kind=conditioned"),
    (["exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", ","],
     "need one or more comma-separated integers, got ','"),
    (["census", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", ","],
     "need one or more comma-separated integers, got ','"),
    # numpy's linspace would refuse it in its own words
    (["fig2", "--p", "0.8,0.2", "--epsilon", "0.1", "--x-points", "-3"],
     "--x-points must be non-negative, got -3"),
    # fsum would raise "-inf + inf in fsum"
    (["analyze", "--p", "inf,-inf", "--epsilon", "0.1"],
     "probabilities must be finite, got 'inf,-inf'"),
    (["analyze", "--p", "nan,0.5", "--epsilon", "0.1"],
     "probabilities must be finite, got 'nan,0.5'"),
    # one list rule for every comma list, each naming what it could not parse
    (["exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "10", "--alpha", "x"],
     "could not parse numbers from 'x'"),
    (["exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "10,x"],
     "could not parse integers from '10,x'"),
    (["fig1", "--epsilon", "0.1", "--p0-grid", "x"],
     "could not parse numbers from 'x'"),
    # the library's own rule: an unconditioned source takes no epsilon
    (["exact-compare", "--p", "0.8,0.2", "--kind", "unconditioned", "--epsilon", "0.1",
      "--k", "10,20"],
     "unconditioned sources take no epsilon"),
    # a negative cap is invalid input, not a resource-guard refusal or a skipped cross-check
    (["exact-compare", "--p", "0.7,0.3", "--epsilon", "0.05", "--k", "10", "--max-types", "-1"],
     "--max-types must be non-negative, got -1"),
    (["exact-compare", "--p", "0.7,0.3", "--epsilon", "0.05", "--k", "10", "--max-words", "-5"],
     "--max-words must be non-negative, got -5"),
    (["census", "--p", "0.7,0.3", "--epsilon", "0.05", "--k", "10", "--max-types", "-1"],
     "--max-types must be non-negative, got -1"),
])
def test_validation_errors_are_one_stderr_line(capsys, argv, message):
    # exit 1 with the one error line on stderr: no traceback, nothing on stdout
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"guessctl: error: {message}\n")


# guessctl's one list rule: a comma list with no items is refused, never read as its default
@pytest.mark.parametrize("text", [",", " , ", ""])
@pytest.mark.parametrize("argv, flag, what", [
    (["exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1"], "--k", "integers"),
    (["exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "10"], "--alpha", "numbers"),
    (["fig1", "--epsilon", "0.1"], "--p0-grid", "numbers"),
], ids=["k", "alpha", "p0_grid"])
def test_empty_lists_are_refused(capsys, argv, flag, what, text):
    code, out, err = run(capsys, [*argv, flag, text])
    assert (code, out, err) == (
        1, "", f"guessctl: error: need one or more comma-separated {what}, got {text!r}\n")


@pytest.mark.parametrize("argv, default", [
    (["analyze", "--p", "0.8,0.2", "--epsilon", "0.1"], "json"),
    (["fig1", "--epsilon", "0.1"], "csv"),
    (["fig2", "--p", "0.8,0.2", "--epsilon", "0.1"], "csv"),
    (["exact-compare", "--p", "0.8,0.2", "--k", "10"], "csv"),
    (["census", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "10"], "csv"),
])
def test_format_defaults_come_from_each_subcommand(argv, default):
    # the parsed namespace carries the subcommand's own default; an explicit --format wins
    assert build_parser().parse_args(argv).format == default
    other = {"csv": "json", "json": "csv"}[default]
    assert build_parser().parse_args([*argv, "--format", other]).format == other


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.1", "0"])
@pytest.mark.parametrize("command", [
    ["fig1"],
    ["census", "--p", "0.8,0.2", "--k", "10"],
    ["exact-compare", "--p", "0.8,0.2", "--kind", "conditioned", "--k", "10"],
    ["exact-compare", "--p", "0.8,0.2", "--kind", "uniform", "--k", "10"],
    typical_set_census,
])
def test_fig1_and_census_reject_epsilon_outside_zero_inf(capsys, command, epsilon):
    # one eps rule and one message for every subcommand and the library census;
    # guessctl exits 1 with one stderr line and nothing on stdout
    message = f"epsilon must be positive and finite, got {float(epsilon)}"
    if callable(command):
        with pytest.raises(DistributionError) as info:
            command((0.8, 0.2), float(epsilon), 10)
        assert str(info.value) == message
        return
    code, out, err = run(capsys, [*command, f"--epsilon={epsilon}"])
    assert (code, out, err) == (1, "", f"guessctl: error: {message}\n")


def test_fig1_default_grid(capsys):
    code, out, _ = run(capsys, ["fig1", "--epsilon", "0.1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "p0,top,middle,bottom,flag"
    data = [l.split(",") for l in lines[2:]]
    assert len(data) == 19
    by_p0 = {round(float(row[0]), 4): row for row in data}
    assert by_p0[0.525][4] == "epsilon_inadmissible"
    assert by_p0[0.975][4] == "epsilon_inadmissible"
    assert by_p0[0.8][4] == ""
    for row in data:
        if row[4] == "":
            assert float(row[2]) > 0.0  # middle curve positive when admissible
    assert float(by_p0[0.8][1]) == pytest.approx(0.0849681477, abs=1e-8)
    assert float(by_p0[0.8][2]) == pytest.approx(0.0150318523, abs=1e-8)
    assert float(by_p0[0.8][3]) == pytest.approx(-0.0024160936, abs=1e-8)


def test_fig1_small_epsilon_golden_matches_mpmath():
    # every gap cell of the fig1 --epsilon 1e-6 golden is the 60-digit value
    # printed by _fmt; the differences of O(1) entropies that wrote middle
    # before had 3-4 wrong digits there
    lines = (DATA / "fig1_eps1e-6.csv").read_text().splitlines()
    assert lines[1] == "p0,top,middle,bottom,flag"
    for row in (line.split(",") for line in lines[2:]):
        want = binary_gaps(float(row[0]), 1e-6)
        assert row[1:] == [_fmt(want["top"]), _fmt(want["middle"]), _fmt(want["bottom"]), ""]


def test_alpha_1e5_golden_matches_mpmath():
    # the scgf cells of the alpha = 1e5 golden, written by the kernel that sums
    # each block from its top terms there, are (1/k) log E[G^alpha] by mpmath
    # at 50 digits over the words' ranks, printed by _fmt: the one-order
    # Euler-Maclaurin form before it printed 69313.1551 at k = 16
    from mpmath import binomial, mp, mpf

    lines = (DATA / "exact_unconditioned_alpha_1e5.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if line.startswith("scgf")]
    assert [row[1] for row in rows] == ["16", "17"]
    for row in rows:
        k, alpha = int(row[1]), 100000
        with mp.workdps(50):
            total, start = mpf(0), 1
            for j in range(k + 1):  # C(k, j) words of probability 0.8^(k-j) 0.2^j, ranked next
                n = int(binomial(k, j))
                top = mpf(start + n - 1) ** alpha
                block = mpf(0)
                for i in range(start + n - 1, start - 1, -1):  # until the terms are negligible
                    block += mpf(i) ** alpha
                    if mpf(i) ** alpha < top * mpf(10) ** -60:
                        break
                total += mpf("0.8") ** (k - j) * mpf("0.2") ** j * block
                start += n
            want = float(mp.log(total) / k)
        assert row[3] == _fmt(want)


def test_fig1_custom_grid(capsys):
    code, out, _ = run(
        capsys, ["fig1", "--epsilon", "0.1", "--p0-grid", "0.7,0.8", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    # low-excess point: middle and bottom coincide
    assert rows[0]["middle"] == rows[0]["bottom"]
    assert rows[1]["middle"] != rows[1]["bottom"]


def test_fig1_flags_name_why_a_row_is_empty(capsys):
    # p0 outside (1/2, 1) is its own flag; epsilon_inadmissible is kept for an
    # admissible p0 whose interval eps leaves
    grid = "0.3,0.7,0.5,1,nan,inf,-1,0.999"
    code, out, _ = run(capsys, ["fig1", "--epsilon", "0.05", "--p0-grid", grid])
    assert code == 0
    flags = [line.split(",")[4] for line in out.splitlines()[2:]]
    assert flags == ["p0_out_of_range", "", *["p0_out_of_range"] * 5, "epsilon_inadmissible"]


def test_fig2_curves(capsys):
    argv = ["fig2", "--p", "0.8,0.2", "--epsilon", "0.1", "--x-points", "100"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("modal_decay" in l for l in meta)
    assert any("plateau_width" in l for l in meta)
    header = [l for l in lines if l.startswith("x,")][0]
    assert header == "x,unconditioned,conditioned,uniform"
    data = [l.split(",") for l in lines if not l.startswith(("#", "x,"))]
    assert len(data) == 100
    # x = 0 intercepts are the modal decay rates
    first = data[0]
    assert float(first[1]) == pytest.approx(-0.2231435513, abs=1e-8)
    assert float(first[2]) == pytest.approx(-0.4004024235, abs=1e-8)
    assert float(first[3]) == pytest.approx(-H_MINUS, abs=1e-8)
    # conditioned and uniform leave their domain before x = log 2
    last = data[-1]
    assert float(last[0]) == pytest.approx(math.log(2.0), abs=1e-8)
    assert last[1] != "inf" and last[2] == "inf" and last[3] == "inf"
    _, out2, _ = run(capsys, argv)
    assert out == out2


def test_exact_compare_table(capsys):
    code, out, _ = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1",
        "--k", "4,6,8", "--alpha=-0.5,1",
    ])
    assert code == 0
    lines = out.splitlines()
    data = [l for l in lines if not l.startswith("#") and not l.startswith("series,")]
    # 2 scgf series + mean_log + top_prob + modal_count + typical_size, 3 ks
    assert len(data) == 6 * 3
    trends = [l for l in lines if l.startswith("# trend:")]
    assert len(trends) == 6
    assert all(l.endswith(":pass") for l in trends)


def test_exact_compare_empty_k_flagged(capsys):
    code, out, _ = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "2,6,10",
    ])
    assert code == 0
    flagged = [l for l in out.splitlines() if l.endswith("empty_typical_set")]
    assert len(flagged) == 8  # every series reports the unusable k


def test_exact_compare_trend_failure_exit_code(capsys):
    # feeding the chain in decreasing order inverts every gap comparison
    code, out, _ = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "14,6",
    ])
    assert code == 3
    assert any(l.endswith(":FAIL") for l in out.splitlines())


def test_exact_compare_repeated_k_is_judged_once(capsys):
    # a repeated k adds rows but no second point to its trend: the verdicts
    # and exit code are those of the distinct chain
    code, out, _ = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "10,10",
    ])
    once = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "10",
    ])[1]
    assert code == 0
    lines = out.splitlines()
    trends = [l for l in lines if l.startswith("# trend:")]
    assert trends == [l for l in once.splitlines() if l.startswith("# trend:")]
    assert all(l.endswith(":pass") for l in trends)
    rows = [l for l in lines if l.startswith("scgf[alpha=1.00000000],")]
    assert len(rows) == 2 and rows[0] == rows[1]


def test_exact_compare_unconditioned_kind(capsys):
    code, out, _ = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--kind", "unconditioned",
        "--k", "4,8", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    series = {row["series"] for row in payload["rows"]}
    assert "typical_size" not in series
    assert all(payload["trends"].values())


def test_exact_compare_naive_crosscheck(capsys):
    code, out, _ = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1",
        "--k", "6,10", "--max-words", "2000",
    ])
    assert code == 0
    checks = [l for l in out.splitlines() if l.startswith("# crosscheck:")]
    assert len(checks) == 2
    assert all(l.endswith(":ok") for l in checks)


def test_exact_compare_is_one_kernel_pass_and_one_table_per_k(capsys, monkeypatch):
    # three ks, one empty and one repeated, two of them cross-checked: each
    # distinct k's table is built once, the cross-check reads the table its
    # series use, and one kernel pass takes every table, scaled and unscaled
    from guesswork import oracle

    passes, builds = [], []
    kernel, build = oracle._log_sums, oracle.build_guess_table

    def counted_kernel(tables, alphas):
        passes.append([s for *_, s in tables])
        return kernel(tables, alphas)

    def counted_build(source, k, **kw):
        builds.append(k)
        return build(source, k, **kw)

    monkeypatch.setattr(oracle, "_log_sums", counted_kernel)
    monkeypatch.setattr(oracle, "build_guess_table", counted_build)
    code, out, _ = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1",
        "--k", "2,6,10,6", "--max-words", "2000",
    ])
    assert code == 0
    assert builds == [2, 6, 10]  # k = 2 has no typical type
    assert passes == [[1.0 / 6, 1.0 / 10, 1.0, 1.0]]
    checks = [l for l in out.splitlines() if l.startswith("# crosscheck:")]
    assert checks == ["# crosscheck:k=6:ok", "# crosscheck:k=10:ok"]


def test_exact_compare_keeps_alpha_zero_out_of_the_kernel(capsys, monkeypatch):
    # E[G^0] = 1 for every table: its caller pins log E[G^0] = 0.0 and sends
    # the kernel only the other alphas
    from guesswork import oracle

    sent = []
    kernel = oracle._log_sums

    def counted_kernel(tables, alphas):
        sent.append(list(alphas))
        return kernel(tables, alphas)

    monkeypatch.setattr(oracle, "_log_sums", counted_kernel)
    code, out, _ = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "6,10", "--alpha=0,1",
    ])
    assert code == 0
    assert sent == [[1.0]]
    rows = [l.split(",") for l in out.splitlines() if l.startswith("scgf[alpha=0.00000000]")]
    assert [(k, exact) for _, k, _, exact, *_ in rows] == [("6", "0.00000000"),
                                                           ("10", "0.00000000")]


_CROSSCHECK_16_17 = ["exact-compare", "--kind", "unconditioned", "--p", "0.8,0.2",
                     "--k", "16,17", "--max-words", "200000"]


def _crosscheck_lines(capsys, alpha):
    # a numpy warning would reach stderr; here it fails the call instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, _CROSSCHECK_16_17 + ["--alpha", alpha])
    return code, [l for l in out.splitlines() if l.startswith("# crosscheck:")], err


def test_exact_compare_crosscheck_in_log_domain(capsys):
    # E[G^1000] is about e^11000 at k = 16: the linear-domain check overflowed
    # to inf on both sides and printed a false MISMATCH with an overflow warning
    code, checks, err = _crosscheck_lines(capsys, "1000")
    assert (code, err) == (0, "")
    assert checks == ["# crosscheck:k=16:ok", "# crosscheck:k=17:ok"]


def test_exact_compare_crosscheck_at_alpha_1e5_is_ok(capsys):
    # alpha = 1e5 against ranks up to 2^17: the kernel sums each block from its top
    # terms below rank 135,833, where the Euler-Maclaurin bound first meets its
    # tolerance at this alpha; the one-order form it took from rank 30,000 was
    # off by 6.85e-3 (k = 16) and 4.2e-4 (k = 17) on log E[G^alpha], a false MISMATCH
    code, checks, err = _crosscheck_lines(capsys, "100000")
    assert (code, err) == (0, "")
    assert checks == ["# crosscheck:k=16:ok", "# crosscheck:k=17:ok"]


def test_exact_compare_crosscheck_mismatch_exits_3(capsys, monkeypatch):
    # a true MISMATCH: kernel results moved by 1e-6 on the log, past the cross-check's
    # 1e-9, print MISMATCH for both word lengths and exit 3
    from guesswork import oracle

    log_sums = oracle._log_sums

    def moved(tables, alphas):
        return [([x + 1e-6 for x in logs], log_logs) for logs, log_logs in log_sums(tables, alphas)]

    monkeypatch.setattr(oracle, "_log_sums", moved)
    code, checks, err = _crosscheck_lines(capsys, "1000")
    assert (code, err) == (3, "")
    assert checks == ["# crosscheck:k=16:MISMATCH", "# crosscheck:k=17:MISMATCH"]


def test_census_report(capsys):
    code, out, _ = run(capsys, [
        "census", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", "2,5,10",
    ])
    assert code == 0
    lines = out.splitlines()
    assert "# smallest nonempty k: 4" in lines
    rows = {l.split(",")[0]: l.split(",") for l in lines
            if not l.startswith("#") and not l.startswith("k,")}
    assert rows["2"][2] == "0" and rows["2"][5] == "empty"
    assert rows["5"][2] == "5"
    assert float(rows["5"][4]) == pytest.approx(0.4096, abs=1e-8)
    assert rows["10"][2] == "45"


@pytest.mark.parametrize("extra", [["--k", "10,0"], ["--k", "6,40", "--max-types", "20"]])
def test_exact_compare_non_finite_alpha_is_reported_first(capsys, extra):
    # the first k's moments refuse the alpha before a later k is built
    code, out, err = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", *extra, "--alpha=nan",
    ])
    assert (code, out, err) == (1, "", "guessctl: error: alpha must be finite, got nan\n")


def test_exact_compare_huge_alpha_has_no_nan(capsys):
    # alpha log i leaves float range at k = 10, but (1/k) log E[G^alpha] does not:
    # the last rank N dominates, so the value is (alpha log N + log P(G = N)) / k
    alpha, k = 1e308, 10
    code, out, err = run(capsys, [
        "exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1", "--k", f"6,{k}",
        "--alpha", "1e308",
    ])
    assert code in (0, 3) and err == ""
    assert "nan" not in out
    rows = [l.split(",") for l in out.splitlines() if l.startswith("scgf")]
    assert [r[1] for r in rows] == ["6", "10"]
    # the typical 10-types of (0.8, 0.2) at epsilon 0.1, by letter-1 count j
    h = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    log_w = {j: (k - j) * math.log(0.8) + j * math.log(0.2) for j in range(k + 1)}
    typical = [j for j in log_w if abs(-log_w[j] / k - h) <= 0.1 + 1e-12]
    n = sum(math.comb(k, j) for j in typical)
    log_mass = math.log(math.fsum(math.comb(k, j) * math.exp(log_w[j]) for j in typical))
    log_last = min(log_w[j] for j in typical) - log_mass
    want = alpha / k * math.log(n) + log_last / k
    assert math.isfinite(want)
    assert float(rows[1][3]) == pytest.approx(want, rel=1e-8)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "fig1.csv"
    code, out, _ = run(capsys, [
        "fig1", "--epsilon", "0.1", "--out", str(target),
    ])
    assert code == 0 and out == ""
    _, stdout_version, _ = run(capsys, ["fig1", "--epsilon", "0.1"])
    assert target.read_text() == stdout_version


def test_fig2_grid_cap_is_a_resource_guard(capsys):
    # refused before the grid is allocated: a trillion points would not fit in memory
    code, out, err = run(capsys, [
        "fig2", "--p", "0.8,0.2", "--epsilon", "0.1", "--x-points", "1000000000000",
    ])
    assert code == 2 and out == ""
    assert err.startswith("guessctl: resource guard: ") and err.count("\n") == 1


def test_resource_guard_exit_code(capsys):
    code, _, err = run(capsys, [
        "census", "--p", "0.8,0.2", "--epsilon", "0.1",
        "--k", "40", "--max-types", "10",
    ])
    assert code == 2
    assert "resource guard" in err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv", [
    # typical-set kind near p = 1/2: a rank range ratio above float range
    ["--p", "0.445907572125094,0.554092427874906", "--kind", "uniform",
     "--k", "58,485,1080", "--epsilon", "0.009284704429555325"],
    # unconditioned at k >= 1095: a rank range ratio below float range
    ["--p", "0.7682602488176941,0.23173975118230594", "--kind", "unconditioned",
     "--k", "60,716,1144"],
])
def test_exact_compare_far_rank_ranges(capsys, argv):
    code, out, err = run(capsys, ["exact-compare", *argv, "--max-words", "65536"])
    assert code in (0, 3) and err == ""
    rows = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "series"))]
    assert rows and all(math.isfinite(float(row[3])) for row in rows)


# argv, exit code, stderr and stdout file of each golden run, written by the
# implementation before the one-table-per-k exact-compare path; the m = 4
# unconditioned one by the per-block rank sums before the table kernel, the
# fig2 m = 2, 3, 5 ones by the bisection-on-alpha implementation of Lambda*,
# the m = 3 unconditioned k = 100..300 one by math.fsum rank sums, before
# the numpy exact sum whose fast path its 5,151- to 45,451-row tables take,
# and the m = 3 census at k = 50..150 (187 to 1,642 typical types a row) by the
# census that held its types as tuples, before it kept its count matrix; the
# census_scan_limit one by the scan that stops where --max-types is outgrown; the
# near-uniform conditioned one, whose l+ edge lies within 1e-12 of c_max, has
# every cell within 1e-8 of bench/reference.py; the unconditioned-with-epsilon
# refusal (empty stdout) by the exact-compare that hands epsilon to Source for
# every kind, checked by hand; the unconditioned alpha = 1e5 one by the kernel
# that routes each block by its Euler-Maclaurin remainder bound, its scgf cells
# checked against mpmath (test_alpha_1e5_golden_matches_mpmath)
GOLDENS = json.loads((DATA / "cli_goldens.json").read_text())


@pytest.mark.parametrize("case", GOLDENS, ids=[c["stdout"] for c in GOLDENS])
def test_cli_matches_golden_output(capsys, case):
    code, out, err = run(capsys, case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == (DATA / case["stdout"]).read_text()


def _fig1_cases():
    # the fig1 goldens, and a grid of the eps = 0.05 golden's p0 that mixes
    # inadmissible ones (0.55, 0.6) in, whose bytes are that golden's lines
    cases = [(c["argv"], (DATA / c["stdout"]).read_text())
             for c in GOLDENS if c["argv"][0] == "fig1"]
    lines = (DATA / "fig1_eps005.csv").read_text().splitlines(keepends=True)
    rows = {line.split(",")[0]: line for line in lines[2:]}
    grid = ["0.55", "0.825", "0.6", "0.95"]
    out = "".join(lines[:2] + [rows[f"{float(p0):.9f}"] for p0 in grid])
    return cases + [(["fig1", "--epsilon", "0.05", "--p0-grid", ",".join(grid)], out)]


FIG1_CASES = _fig1_cases()


@pytest.mark.parametrize("argv, want", FIG1_CASES, ids=[" ".join(a[1:]) for a, _ in FIG1_CASES])
def test_fig1_builds_no_tilted_family(capsys, monkeypatch, argv, want):
    # fig1 reads the admissibility rule on (p0, 1 - p0)'s floats and its
    # closed forms: its golden bytes with TiltedFamily unconstructible
    from guesswork.tilting import TiltedFamily

    def refuse(self, p):
        raise AssertionError("fig1 built a TiltedFamily")

    monkeypatch.setattr(TiltedFamily, "__init__", refuse)
    assert run(capsys, argv) == (0, want, "")


def test_near_uniform_epsilon_below_the_admissible_lower_end_is_refused(capsys):
    # c_max - h = 4e-16 < 1e-12, so the interval's lower end is positive, above
    # its top 4e-16: the interval is empty and eps = 1e-16 lies below it; the
    # window would solve the l+ edge (beta+ = 1.27755575), but fig2 refuses eps
    # before any model is built
    code, out, err = run(capsys, [
        "fig2", "--p", "0.50000001,0.49999999", "--epsilon", "1e-16", "--x-points", "3",
    ])
    assert (code, out) == (1, "")
    assert err == "guessctl: error: epsilon inadmissible; admissible interval is empty\n"


def test_exact_compare_runs_on_numpy_alone():
    # the oracle's rank sums need nothing beyond numpy: a fresh interpreter
    # runs the golden k = 50, 200, 1000 argv without importing mpmath
    script = (
        "import sys\n"
        "import guesswork\n"
        "from guesswork import cli\n"
        "code = cli.main(['exact-compare', '--p', '0.8,0.2', '--epsilon', '0.1',\n"
        "                 '--k', '50,200,1000', '--format', 'json'])\n"
        "assert code == 0, code\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "exact_conditioned_k1000.json").read_text()


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_out_unwritable_is_an_error(tmp_path, capsys, target):
    code, out, err = run(capsys, [
        "analyze", "--p", "0.8,0.2", "--epsilon", "0.1", "--out", str(tmp_path / target),
    ])
    assert code == 1 and out == ""
    assert err.startswith("guessctl: error: ") and err.count("\n") == 1


# Each fuzzed argv draws every flag of its subcommand from the valid pool, then
# may swap one flag for a bad value (None drops it): nan, inf, negative, zero,
# empty or garbage. k <= 30, --x-points <= 50 and --max-types <= 500 keep runs cheap.
FUZZ_VALID = {
    "--p": ["0.8,0.2", "0.5,0.3,0.2", "0.5,0.5", "1,0"],
    "--epsilon": ["0.1", "0.05", "0.2"],
    "--kind": ["conditioned", "uniform", "unconditioned"],
    "--k": ["6,10", "14,6,6", "2", "30", "4,8,12"],
    "--alpha": [None, "-0.5,1", "2", "0,-2"],
    "--x-points": ["5", "50"],
    "--p0-grid": [None, "0.7,0.8"],
    "--max-words": [None, "64", "4096"],
    "--format": [None, "csv", "json"],
    "--max-types": ["500", "40"],
    "--out": [None, "out.txt"],
}
FUZZ_BAD = {
    "--p": ["nan,0.5", "inf,-inf", "-0.2,1.2", "0.8", "0.8,0.1", "", "x"],
    "--epsilon": ["1e-300", "nan", "inf", "-0.1", "0", "", "x"],
    "--kind": ["x"],
    "--k": ["0", "-3", "", "nan", "x"],
    "--alpha": ["nan", "inf", "-inf", ",", "", "x"],
    "--x-points": ["0", "-1", "nan", "x", "1000000000000"],
    "--p0-grid": ["nan,inf,-1,0,1,2", ",", "", "x"],
    "--max-words": ["0", "-1", "x"],
    "--format": ["x"],
    "--max-types": ["5", "0", "-1", "x"],
    "--out": [".", "missing/out.txt"],
}
FUZZ_COMMANDS = {
    "analyze": ("--p", "--epsilon"),
    "fig1": ("--epsilon", "--p0-grid"),
    "fig2": ("--p", "--epsilon", "--x-points"),
    "exact-compare": ("--p", "--epsilon", "--kind", "--k", "--alpha", "--max-words", "--max-types"),
    "census": ("--p", "--epsilon", "--k", "--max-types"),
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_main_fuzz_exits_cleanly(tmp_path, capsys, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)), label="command")
    flags = (*FUZZ_COMMANDS[command], "--format", "--out")
    values = {flag: data.draw(st.sampled_from(FUZZ_VALID[flag]), label=flag) for flag in flags}
    bad = data.draw(st.sampled_from([None, *flags]), label="bad flag")
    if bad is not None:
        values[bad] = data.draw(st.sampled_from([None, *FUZZ_BAD[bad]]), label="bad value")
    argv = [command]
    for flag, value in values.items():
        if value is not None:
            argv.append(f"{flag}={tmp_path / value if flag == '--out' else value}")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejecting the argv
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2, 3)


# The format's contract, checked on hard cases and on every float: values
# that round up across a digit (0.825 is stored just below it), powers of
# ten and their neighbours, ties at the ninth digit, both edges of the
# positional range, the float range's ends and subnormals.
HARD_FLOATS = [
    0.825, 0.4878567, 0.12345678951, 0.99999999996, 9.9999999996, 2.5e-7, 1.5e-10,
    *(y for k in range(-20, 11) for x in [float(f"1e{k}")]
      for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))),
    123456789.5, 1234567885.0, 12345678.25, 999999999.7, 9.99999999999e-05,
    1e308, 1.7976931348623157e308, 2.2250738585072014e-308, 5e-324,
]


def _significant_digits(cell: str) -> int:
    return len(cell.lstrip("-").split("e")[0].replace(".", "").lstrip("0"))


def _json_cells(values) -> list:
    """The JSON values `_table` prints for one column of floats."""
    args = argparse.Namespace(format="json")
    return [row["x"] for row in json.loads(_table(args, [], "x", [values]))["rows"]]


def check_format(x: float) -> None:
    cell = _fmt(x)
    assert _fmt(float(cell)) == cell  # idempotent
    if math.isnan(x):
        assert cell == "nan" and _jnum(x) == "nan"
        return
    if math.isinf(x):
        assert cell == ("inf" if x > 0 else "-inf") and _jnum(x) == cell
        return
    y = float(cell)
    assert y == float("%.8e" % x)  # the correctly rounded 9 digits
    assert _jnum(x) == y
    if x == 0.0:
        assert cell == "0.00000000"
        return
    assert _significant_digits(cell) == 9
    # positional exactly when the rounded value lies in [1e-4, 1e9)
    assert ("e" not in cell) == (1e-4 <= abs(y) < 1e9)


def test_fmt_contract_on_hard_cases():
    for x in [*HARD_FLOATS, *(-x for x in HARD_FLOATS), 0.0, -0.0, math.inf, -math.inf, math.nan]:
        check_format(x)


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_fmt_contract(x):
    check_format(x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_json_number_is_the_float_its_cell_shows(xs):
    cells = _fmt_column(xs)
    assert cells == [_fmt(x) for x in xs]
    assert _json_cells(xs) == [float(c) if math.isfinite(float(c)) else c for c in cells]


def test_fmt_pins():
    assert _fmt(2.5e-7) == "2.50000000e-07"
    assert _fmt(0.825) == "0.825000000"
    assert _fmt(1e308) == "1.00000000e+308"
    assert _fmt(123456789.0) == "123456789."
    assert _fmt(-0.0) == "0.00000000"


def test_fig1_keeps_nine_digits_where_rounding_carries(capsys):
    code, out, _ = run(capsys, ["fig1", "--epsilon", "0.05", "--p0-grid", "0.825,0.8"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert rows[0][0] == "0.825000000" and rows[1][1] == "0.0461018950"


def test_exact_compare_huge_alpha_prints_short_cells(capsys):
    # one exponent in place of about 310 positional digits
    _, out, _ = run(capsys, ["exact-compare", "--p", "0.8,0.2", "--epsilon", "0.1",
                             "--k", "6,10", "--alpha", "1e308"])
    rows = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "series"))]
    long_cells = {cell for row in rows for cell in row if len(cell) > 16}
    assert long_cells == {"scgf[alpha=1.00000000e+308]"}


def test_fmt_column_renders_mixed_columns_cell_by_cell():
    # exact-compare rows mix labels, ints, floats and None; fig1 and census
    # rows add flags and huge exact counts
    column = ["scgf[alpha=0.500000000]", 6, 0.5, None, 0.0123456789, "", "empty_typical_set",
              2**200, True, math.inf, np.float64(0.825)]
    cells = _fmt_column(column)
    assert cells == [
        "" if v is None else _fmt(v) if isinstance(v, float) else str(v) for v in column
    ]
    assert _fmt_column([]) == [] and _fmt_column([None, "x"]) == ["", "x"]


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_FLOAT_CELLS = st.one_of(
    _ANY_FLOAT, _ANY_FLOAT.map(np.float64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310]),
)
_CELLS = st.one_of(
    _FLOAT_CELLS, st.none(), st.text(max_size=6), st.integers(-10**6, 10**6), st.booleans(),
    st.integers(2**1000, 2**1100), st.integers(-2**1100, -2**1000),
)


@st.composite
def _tables(draw):
    # columns of a table: floats only (a list, or a float64 numpy array) or any mix of cells
    n_rows = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(["floats", "array", "cells"]), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        col = draw(st.lists(_CELLS if kind == "cells" else _FLOAT_CELLS,
                            min_size=n_rows, max_size=n_rows))
        columns.append(np.array(col, dtype=np.float64) if kind == "array" else col)
    return columns


def _cells(col) -> list[str]:
    # a column's cells as _fmt_column prints them, a numpy column as its list
    return _fmt_column(col.tolist() if isinstance(col, np.ndarray) else col)


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_csv_table_is_the_per_cell_rendering(columns):
    # the one '%' pass over a row template prints each cell as _fmt_column does
    args = argparse.Namespace(format="csv")
    meta, header, footer = ["# meta"], ",".join(f"c{j}" for j in range(len(columns))), ["# end"]
    body = [",".join(row) for row in zip(*map(_cells, columns))]
    want = "".join(line + "\n" for line in [*meta, header, *body, *footer])
    assert _table(args, meta, header, columns, footer=footer) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("array", [False, True], ids=["list", "numpy"])
def test_float_columns_print_as_fmt(fmt, array):
    # a float column, a list or a float64 numpy array, prints -0.0, inf, nan,
    # 1e-5 and 123456789.0 as _fmt does in CSV, and as the JSON value of
    # that cell
    values = [-0.0, math.inf, -math.inf, math.nan, 1e-5, 123456789.0, 0.825]
    col = np.array(values) if array else values
    args = argparse.Namespace(format=fmt)
    text = _table(args, [], "x,flag", [col, ["a"] * len(values)])
    cells = [_fmt(v) for v in values]
    assert cells[:6] == ["0.00000000", "inf", "-inf", "nan", "1.00000000e-05", "123456789."]
    if fmt == "csv":
        assert text.splitlines() == ["x,flag", *(f"{c},a" for c in cells)]
    else:
        rows = json.loads(text)["rows"]
        assert [row["x"] for row in rows] == [_json_value(c) for c in cells]
        assert json.dumps(rows[0]["x"]) == "0.0"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fig2_zero_points_is_an_empty_table(capsys, fmt):
    code, out, err = run(capsys, ["fig2", "--p", "0.8,0.2", "--epsilon", "0.1",
                                  "--x-points", "0", "--format", fmt])
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["rows"] == []
    else:
        assert out.splitlines()[-1] == "x,unconditioned,conditioned,uniform"


def test_shared_parser_serves_each_argv_as_a_fresh_process_does(tmp_path, capsys):
    # one process runs the sequence through main(); each argv alone in a new
    # interpreter must give the same exit code, stdout and --out file
    target = tmp_path / "fig1.csv"
    argvs = [
        ["fig2", "--p", "0.8,0.2", "--epsilon", "0.1", "--x-points", "30", "--format", "json"],
        ["fig2", "--p", "0.5,0.3,0.2", "--epsilon", "0.07"],
        ["analyze", "--p", "0.8,0.2", "--epsilon", "0.1"],
        ["analyze", "--epsilon", "0.1"],  # argparse refusal: --p is required
        ["fig1", "--epsilon", "0.05", "--out", str(target)],
        ["fig1", "--epsilon", "0.05"],
    ]
    in_process = []
    for argv in argvs:
        target.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, _ = capsys.readouterr()
        in_process.append((code, out, target.read_text() if target.exists() else None))

    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for argv, want in zip(argvs, in_process):
        target.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-m", "guesswork.cli", *argv],
                              capture_output=True, text=True, env=env)
        got = (proc.returncode, proc.stdout, target.read_text() if target.exists() else None)
        assert got == want, argv
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0, 0]
    assert in_process[4][2] == in_process[5][1] != ""
    # the shared tree is main's alone: build_parser() still builds a new one
    assert build_parser() is not build_parser()


def test_fig2_near_tied_top_letters_warn_nothing(capsys):
    # two top letters 4e-6 apart: at large beta the Newton slope -beta Var is
    # subnormal and resid / slope overflows; numpy must not warn about it
    argv = ["fig2", "--p", "0.40000160000640006,0.20000080000320003,0.39999759999039997",
            "--epsilon", "0.05", "--x-points", "400"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")
