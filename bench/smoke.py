"""Smoke check of the benchmark harness, at tiny sizes.

    python3 bench/smoke.py

Run from the repository root. It first checks the reference module
against brute-force word enumeration, then runs every workload through
run.py --smoke with tracing off and on, and asserts that each run exits 0,
finds every output correct, and emits exactly the metric names that
BENCHMARK.json lists. Takes about half a minute.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402


def brute_force(kind: str, p, eps, k: int) -> tuple[list[float], list[float]]:
    """Word probabilities in guessing order, from every word of length k."""
    logp = [math.log(q) for q in p]
    h = ref.entropy(p)
    logw = []
    for word in itertools.product(range(len(p)), repeat=k):
        lw = math.fsum(logp[a] for a in word)
        if kind == "unconditioned" or h - eps - 1e-12 <= -lw / k <= h + eps + 1e-12:
            logw.append(lw)
    logw.sort(reverse=True)
    if kind == "uniform":
        return logw, [1.0 / len(logw)] * len(logw)
    mass = math.fsum(math.exp(v) for v in logw)
    return logw, [math.exp(v) / mass for v in logw]


def check_reference() -> None:
    p, eps, k = (0.6, 0.3, 0.1), 0.25, 7
    for kind in ("unconditioned", "conditioned", "uniform"):
        logw, probs = brute_force(kind, p, eps, k)
        table = ref.table_ref(kind, p, eps, k)
        assert table.total == len(probs), (kind, table.total, len(probs))
        for alpha in (-0.5, 0.5, 1.0, 2.0):
            want = math.log(math.fsum(q * (i + 1) ** alpha for i, q in enumerate(probs)))
            assert ref.close(ref.log_moment(table, alpha), want, 1e-12), (kind, alpha)
        want = math.fsum(q * math.log(i + 1) for i, q in enumerate(probs))
        assert ref.close(ref.mean_log(table), want, 1e-12), kind
        top = sum(1 for v in logw if v >= logw[0] - ref.TIE_TOL) if kind != "uniform" else len(logw)
        assert ref.modal_count(table) == top, kind


def main() -> int:
    check_reference()
    print("smoke: reference agrees with brute-force enumeration")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"], (workload, trace, proc.stderr[-2000:])
            names = set(result["metrics"])
            assert names == expected[trace], (workload, trace, names ^ expected[trace])
            print(f"smoke: {workload} --trace {trace}: {result['attempted']} requests, "
                  f"{len(names)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
