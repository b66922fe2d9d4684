"""Host-speed calibration, so timings are comparable on a drifting host.

On a shared host a core switches, with the load of other tenants, between
a fast state and one about 1.7 times slower, each lasting seconds; wall
and CPU time are affected alike. A fixed pure-Python loop (integer
arithmetic, tuple keys, dict and set updates: the operations growthlab's
inner loops are made of) is timed between experiments, and an
experiment's time is scaled by REFERENCE_S over the mean of the loop
times just before and just after it. The result is a time in reference
seconds: the time the same work takes on a host where the loop takes
REFERENCE_S. Only the benchmark runs this loop, so a change to growthlab
moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import multiprocessing
import statistics
import time

REFERENCE_S = 0.0035  # near the loop's time in the fast state of the 2-core Xeon host
LOOP_N = 8_000
REPEATS = 3
EVERY_S = 0.25  # an experiment starting this long after the last sample gets a new one


def _loop() -> int:
    seen: set[int] = set()
    table: dict[tuple[int, int], int] = {}
    x = 1
    for i in range(LOOP_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 4095, i & 7)
        table[key] = table.get(key, 0) + 1
        seen.add(x & 65535)
    return len(seen) + len(table)


def _best(_=None) -> float:
    """Fastest loop time of a few repeats."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def sample(procs: int = 1) -> tuple[float, float, int]:
    """(monotonic time at the end, loop time, procs).

    With procs > 1 the loop runs in that many forked processes at once, the
    way a pool experiment keeps that many cores busy, and the loop time is
    their mean.
    """
    if procs <= 1:
        return time.monotonic(), _best(), 1
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(procs) as pool:
        times = pool.map(_best, range(procs), chunksize=1)
    return time.monotonic(), sum(times) / procs, procs


def last(samples: list, procs: int) -> float:
    """Time of the latest sample taken with procs processes, or -inf."""
    return max((t for t, _, p in samples if p == procs), default=float("-inf"))


def scale(samples: list[float]) -> float:
    """Factor from seconds to reference seconds, given loop times around the work."""
    return REFERENCE_S / statistics.fmean(samples)


def bracket(samples: list, start: float, end: float, procs: int) -> float:
    """Factor for work from start to end on procs processes: the samples of
    that many processes just before and just after it."""
    own = [(t, x) for t, x, p in samples if p == procs]
    times = [t for t, _ in own]
    before = own[max(bisect.bisect_right(times, start) - 1, 0)][1]
    after = own[min(bisect.bisect_left(times, end), len(own) - 1)][1]
    return scale([before, after])
