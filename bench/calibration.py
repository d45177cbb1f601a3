"""Machine-speed calibration for timings taken on a shared, drifting host.

On a host shared with other tenants the same pure-Python call can take
1.7 times longer from one spell to the next, and the host switches between
its fast and slow spells every fraction of a second to a few seconds. A raw
wall time therefore says as much about the host as about the code. The
benchmark measures the host's speed while each timed call runs: a short,
fixed pure-Python kernel runs right before the call, every SAMPLE_PERIOD_S
of wall time during it (from a SIGALRM handler, so no extra thread), and
right after it. The call is reported at reference speed:

    scaled = (raw - time spent in the handler) * REFERENCE_S / mean(kernel times)

that is, the time the call would take on a host where the kernel takes
REFERENCE_S seconds. Sampling during the call, rather than only at its
ends, follows a switch of spell in the middle of a long call. The kernel
does not touch guesswork, so a slower package still reads slower. Raw times
are logged beside the scaled ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

SAMPLE_PERIOD_S = 0.01

#: kernel time, run once between other work, in a fast spell of the host
#: where the benchmark bounds were set (see spec.json "machine")
REFERENCE_S = 0.0002


def kernel() -> float:
    """Fixed interpreter-bound work: float math, tuples, dicts, calls, ints."""
    acc = 0.0
    table: dict[int, float] = {}
    big = 1
    for i in range(600):
        pair = (i * 0.5, i % 7)
        acc += math.log1p(pair[0]) * pair[1]
        table[i & 255] = acc
        if i % 16 == 0:
            big = big * 3 + i
    return acc + len(table) + big % 97


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Times the body of a `with` block, raw and at reference speed.

    After the block, `raw` is its wall time and `seconds` the same time at
    reference speed, without the time the speed samples took inside it.
    """

    def __enter__(self) -> Clock:
        self.samples = [kernel_seconds()]
        self.inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.inside += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.raw = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_seconds())
        self.seconds = (self.raw - self.inside) * REFERENCE_S / statistics.fmean(self.samples)
