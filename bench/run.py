"""Benchmark of the guesswork package: one workload per process, one JSON result.

    python3 bench/run.py --workload rate_curves --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src.

--trace 0 measures the end-to-end metrics: set-up time in fresh
interpreters, then a closed loop of seeded requests (one client, next
request sent when the previous one returns). A run sends a fixed number of
whole cycles: about --seconds of request time at reference speed, and at
least MIN_REQUESTS requests. It does not stop on a clock, so the same
--seed and --seconds always send the same requests and meet the same
failures. Times are reported at reference speed (calibration.py); raw
wall-time figures are logged on standard error beside them. --trace 1
replays the first cycle of the same requests untraced and then traced, and
reports the per-layer metrics, the tracing overhead and the fixed layer
probes. Every output is checked against an independent reference outside
the timed region. A failed request counts against success_rate; one that
fails in a way other than a workload's known defects, or whose output is
wrong, also makes the run incorrect.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import probes  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TOLERANCES = json.loads((BENCH / "spec.json").read_text())["tolerances"]

MIN_REQUESTS = 100  # so that at least ten requests fall beyond p90
MAX_SECONDS_FACTOR = 5  # guard: the loop stops after this many times --seconds of wall time
WARMUP_REQUESTS = 3
SETUP_REPEATS = 7  # fresh interpreters timed for setup_s
SETUP_EVERY_REQUESTS = 18  # one set-up sample per this many requests of the loop
IMPORT_REPEATS = 5  # fresh interpreters timed for import.guesswork_s
PROBE_REPEATS = 3
SMOKE_TRACE_REQUESTS = 3

# Each fresh interpreter times its own import with the calibration clock
# (see calibration.py).
FRESH_CODE = (
    "import sys; sys.path.insert(0, {bench!r}); import calibration as c\n"
    "with c.Clock() as clock:\n    import guesswork; {extra}\n"
    "print(clock.raw, clock.seconds)"
)
SETUP_CODE = FRESH_CODE.format(bench=str(BENCH),
                               extra="from guesswork.cli import build_parser; build_parser(); ")
IMPORT_CODE = FRESH_CODE.format(bench=str(BENCH), extra="")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_package():
    """Import guesswork from this checkout's src/ and nowhere else."""
    if not (SRC / "guesswork" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC}/guesswork")
    sys.path.insert(0, str(SRC))
    import guesswork

    if Path(guesswork.__file__).resolve().parent != SRC / "guesswork":
        raise SystemExit(f"bench: imported guesswork from {guesswork.__file__}")
    return guesswork


def fresh_interpreter_seconds(code: str) -> tuple[float, float]:
    """(raw, scaled) timing that `code` prints when run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    raw, scaled = map(float, proc.stdout.split())
    return raw, scaled


def run_cycles(workload, seconds: float, smoke: bool) -> int:
    """Number of cycles of a run: a function of --seconds only, never of the clock."""
    if smoke:
        return 1
    return max(math.ceil(MIN_REQUESTS / cycle_length(workload)),
               round(seconds / workload.cycle_seconds))


def requests(workload, seed: int, cycles: int) -> list:
    """The requests of a run: cycles 0 .. cycles-1, from a seeded start cycle."""
    draws = workloads.Draws(workload.name, seed)
    start = draws.rng.randrange(cycles)
    return [req for c in range(cycles) for req in workload.cycle(draws, (start + c) % cycles)]


class Tally:
    """Latencies, items and failures of a sequence of checked requests.

    `latencies` and `busy` are at reference speed; `raw_busy` is wall time.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.busy = 0.0
        self.raw_busy = 0.0
        self.items = 0
        self.failed = 0
        self.wrong = 0  # wrong outputs and failures other than known defects

    def record(self, workload, req, out, tol) -> None:
        self.raw_busy += out.raw
        self.busy += out.seconds
        if out.error is not None:
            known = workload.known_failure(req, out)
            self._fail(not known, f"failed{'' if known else ' (UNEXPECTED)'}", req, out.error)
            return
        try:
            self.items += workload.check(req, out, tol)
        except Exception as exc:  # a malformed result is a wrong one
            self._fail(True, "WRONG output", req, repr(exc))
            return
        self.latencies.append(out.seconds)
        self.raw_latencies.append(out.raw)

    def _fail(self, wrong: bool, what: str, req, why: str) -> None:
        self.failed += 1
        self.wrong += wrong
        self.latencies.append(math.inf)
        self.raw_latencies.append(math.inf)
        log(f"bench: {what}: {workloads.describe(req)}: {why}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed requests sort last as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cycle_length(workload) -> int:
    return len(workload.cycle(workloads.Draws(workload.name, 0), 0))


def run_loop(workload, reqs, tol, seconds: float, between) -> Tally:
    """Closed loop over `reqs`, one request at a time.

    Only a guard stops it early: MAX_SECONDS_FACTOR times `seconds` of wall
    time, at a cycle boundary. `between()` runs outside the timed region
    after every SETUP_EVERY_REQUESTS requests.
    """
    cycle_len = cycle_length(workload)
    tally = Tally()
    t0 = time.perf_counter()
    for req in reqs:
        late = time.perf_counter() - t0 >= MAX_SECONDS_FACTOR * seconds
        if late and tally.attempted % cycle_len == 0:
            log(f"bench: {workload.name}: stopped by the wall-time guard after "
                f"{tally.attempted} of {len(reqs)} requests")
            break
        tally.record(workload, req, workload.execute(req), tol)
        if tally.attempted % SETUP_EVERY_REQUESTS == 0:
            between()
    return tally


def warm_up(workload, seed: int, cycles: int, tol) -> None:
    """A few requests from the design cycle after the run's last, so none is repeated."""
    for req in workload.cycle(workloads.Draws(workload.name, seed), cycles)[:WARMUP_REQUESTS]:
        Tally().record(workload, req, workload.execute(req), tol)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, args, tol) -> tuple[Tally, dict]:
    # set-up samples are spread over the run, so that one slow spell of a
    # shared machine does not decide the median
    setup = [fresh_interpreter_seconds(SETUP_CODE)]
    cycles = run_cycles(workload, args.seconds, args.smoke)
    warm_up(workload, args.seed, cycles, tol)
    tally = run_loop(workload, requests(workload, args.seed, cycles), tol, args.seconds,
                     lambda: setup.append(fresh_interpreter_seconds(SETUP_CODE)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < (1 if args.smoke else SETUP_REPEATS):
        setup.append(fresh_interpreter_seconds(SETUP_CODE))
    ok = tally.attempted - tally.failed
    metrics = {
        "setup_s": metric(statistics.median(s for _, s in setup), "s"),
        "items_per_s": metric(tally.items / tally.busy if tally.busy else 0.0, "items/s"),
        "req_p50_ms": metric(1e3 * percentile(tally.latencies, 0.5), "ms"),
        "req_p90_ms": metric(1e3 * percentile(tally.latencies, 0.9), "ms"),
        "success_rate": metric(ok / tally.attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    raw = tally.raw_latencies
    log(f"bench: {workload.name}: {tally.attempted} requests, {tally.failed} failed "
        f"(error_rate {tally.failed / tally.attempted:.4f}), {tally.items} items; "
        f"{tally.busy:.2f} s busy at reference speed, {tally.raw_busy:.2f} s raw")
    log(f"bench: raw wall time: items_per_s {tally.items / tally.raw_busy:.2f}, "
        f"req_p50_ms {1e3 * percentile(raw, 0.5):.3f}, "
        f"req_p90_ms {1e3 * percentile(raw, 0.9):.3f}, "
        f"setup_s {statistics.median(r for r, _ in setup):.4f}")
    return tally, metrics


def traced(workload, args, tol) -> tuple[Tally, dict]:
    n = SMOKE_TRACE_REQUESTS if args.smoke else cycle_length(workload)
    cycles = run_cycles(workload, args.seconds, args.smoke)
    reqs = requests(workload, args.seed, cycles)[:n]
    warm_up(workload, args.seed, cycles, tol)

    untraced = sum(workload.execute(req).seconds for req in reqs)
    tracer = Tracer()
    outcomes = []
    tracer.install()
    try:
        for i, req in enumerate(reqs):
            tracer.request_id = i
            outcomes.append(workload.execute(req))
    finally:
        tracer.uninstall()
    tally = Tally()
    for req, out in zip(reqs, outcomes):
        tally.record(workload, req, out, tol)

    layer = tracer.summary([out.seconds / out.raw for out in outcomes])
    layer["trace.overhead_ratio"] = tally.busy / untraced if untraced else 0.0
    repeats = 1 if args.smoke else IMPORT_REPEATS
    layer["import.guesswork_s"] = statistics.median(
        fresh_interpreter_seconds(IMPORT_CODE)[1] for _ in range(repeats)
    )
    layer.update(probes.run(1 if args.smoke else PROBE_REPEATS, tol))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"trace-{workload.name}.npz")
    log(f"bench: {workload.name}: {len(tracer.start)} spans over {n} requests "
        f"written to {out_dir.relative_to(ROOT)}/trace-{workload.name}.npz")

    units = {m["name"]: m["unit"] for m in args.benchmark["per_layer"]}
    return tally, {name: metric(layer[name], units[name]) for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and single repeats, for checking the harness")
    args = parser.parse_args(argv)
    args.benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    import_package()
    workload = workloads.WORKLOADS[args.workload](tiny=args.smoke)
    try:
        tally, metrics = (traced if args.trace else end_to_end)(workload, args, TOLERANCES)
    except workloads.CheckError as exc:  # a probe computed a wrong value
        log(f"bench: WRONG probe value: {exc}")
        return 1
    import numpy

    machine = {"python": platform.python_version(), "numpy": numpy.__version__,
               "nproc": os.cpu_count(), "machine": platform.machine()}
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
