"""Fixed single-layer probes: one timed call each, its value checked beside it.

The probes use fixed inputs (not the workload seed), so their times track
the baseline rows of the ROADMAP across commits. Each reports the median
time in milliseconds at reference speed (see calibration.py) over its
repeated calls, and raises CheckError when the value computed in a timed
call disagrees with `reference`.
"""

from __future__ import annotations

import math
import statistics

import reference as ref
from calibration import Clock
from workloads import require, require_close

# numerators over 100 with distinct prime factors: no two k-types share a
# probability exactly, so the guess order has no ties to break
P4 = (0.43, 0.29, 0.17, 0.11)
P3 = (0.53, 0.29, 0.18)
BINARY = (0.8, 0.2)
EPS = 0.1


def _median_ms(fn, repeats: int):
    """Median time of fn() in ms at reference speed, and its last value."""
    times, value = [], None
    for _ in range(repeats):
        with Clock() as clock:
            value = fn()
        times.append(clock.seconds)
    return 1e3 * statistics.median(times), value


def _check_table(table, p, k: int, tol: float) -> None:
    want = ref.table_ref("unconditioned", p, None, k)
    require(table.total_words == len(p) ** k == want.total, "table total != m^k")
    require(len(table.blocks) == len(want.sizes), "table block count")
    require([b.count for b in table.blocks] == want.sizes, "table block sizes")
    got = [b.log_word_prob for b in table.blocks]
    for g, w in zip(got[:: max(1, len(got) // 64)], want.log_w[:: max(1, len(got) // 64)]):
        require_close(g, float(w), tol, "block log-probability")


def run(repeats: int, tol: dict) -> dict[str, float]:
    from guesswork import asymptotics, oracle

    lib_tol = tol["library_rel_tol"]
    out = {}
    for name, p, k in (("m4_k60", P4, 60), ("m3_k150", P3, 150)):
        source = asymptotics.unconditioned(p)
        ms, table = _median_ms(lambda: oracle.build_guess_table(source, k), repeats)
        _check_table(table, p, k, lib_tol)
        out[f"probe.build_guess_table.{name}_ms"] = ms

    table = oracle.build_guess_table(asymptotics.unconditioned(P3), 50)
    ms, value = _median_ms(lambda: oracle.exact_moment_log(table, 0.5), repeats)
    want = ref.log_moment(ref.table_ref("unconditioned", P3, None, 50), 0.5)
    require_close(value, want, lib_tol, "log E[G^0.5] m=3 k=50")
    out["probe.exact_moment_log.m3_k50_ms"] = ms

    model_ref = ref.ScgfRef.build("conditioned", BINARY, EPS)
    model = asymptotics.scgf_model(asymptotics.conditioned(BINARY, EPS))
    x = 0.5 * (model_ref.plateau_width + model_ref.max_slope)
    ms, value = _median_ms(lambda: asymptotics.legendre_transform(model, x), 25 * repeats)
    require_close(value, model_ref.rate(x), lib_tol, "Lambda*(x) interior")
    out["probe.legendre_transform.interior_ms"] = ms

    source = asymptotics.conditioned(BINARY, EPS)
    ms, model = _median_ms(lambda: asymptotics.scgf_model(source), 100 * repeats)
    for key in ("modal_decay", "plateau_width", "max_slope", "tail_intercept"):
        require_close(getattr(model, key), getattr(model_ref, key), lib_tol, f"scgf_model {key}")
    out["probe.scgf_model_ms"] = ms
    require(all(math.isfinite(v) and v > 0 for v in out.values()), "probe times")
    return out
