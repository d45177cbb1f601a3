"""guessctl subcommands: formats, determinism, exit codes."""

import json
import math
from pathlib import Path

import pytest

from guesswork.cli import main

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


def test_analyze_inadmissible_epsilon(capsys):
    code, out, err = run(capsys, ["analyze", "--p", "0.8,0.2", "--epsilon", "0.5"])
    assert code == 1 and out == ""
    assert "epsilon inadmissible" in err
    assert "0.277258872" in err


def test_bad_probabilities(capsys):
    code, _, err = run(capsys, ["analyze", "--p", "0.8,0.1", "--epsilon", "0.1"])
    assert code == 1
    assert "error" in err


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


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "fig1.csv"
    code, out, _ = run(capsys, [
        "fig1", "--epsilon", "0.1", "--out", str(target),
    ])
    assert code == 0 and out == ""
    _, stdout_version, _ = run(capsys, ["fig1", "--epsilon", "0.1"])
    assert target.read_text() == stdout_version


def test_resource_guard_exit_code(capsys):
    code, _, err = run(capsys, [
        "census", "--p", "0.8,0.2", "--epsilon", "0.1",
        "--k", "40", "--max-types", "10",
    ])
    assert code == 2
    assert "resource guard" in err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, p, epsilon", [
    ("fig2_m2.csv", "0.8,0.2", "0.1"),
    ("fig2_m3.csv", "0.5,0.3,0.2", "0.07"),
    ("fig2_m5.csv", "0.35,0.25,0.2,0.12,0.08", "0.15"),
])
def test_fig2_matches_golden_csv(capsys, name, p, epsilon):
    # the golden files come from the bisection-on-alpha implementation of Lambda*
    code, out, _ = run(capsys, ["fig2", "--p", p, "--epsilon", epsilon, "--x-points", "400"])
    assert code == 0
    assert out == (DATA / name).read_text()


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
