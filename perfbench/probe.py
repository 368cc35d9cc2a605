"""Calibration probe: a fixed pure-Python loop that measures the host's speed.

The benchmark shares its machine, and the machine's speed drifts: on the
2-core VM it was built on, this probe took between 27 and 48 ms within
minutes.  The probe runs no program code, so its time changes only with the
host.  Timed right before and right after an episode's timed run, it gives
the host's speed during that run, and the normalized rates divide it out::

    records_per_s_norm = records_per_s * probe_s / REFERENCE_S

A change to the program moves the normalized rates as much as the raw ones;
a busy neighbour moves the probe and the episode together and cancels out.
"""

from __future__ import annotations

import heapq
import time
from typing import Tuple

#: Probe time on the uncontended build VM: normalized rates equal the raw
#: rates of a host on which one probe pass takes this long.
REFERENCE_S = 0.028
#: Iterations of one probe pass.
PASSES = 30_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def _accumulate():
    total = 0
    while True:
        total += yield total


def probe() -> Tuple[float, float]:
    """Wall and CPU seconds of one fixed pass of dict, object, heap and generator work.

    The mix mirrors what the emulator spends its time on: keyed dict
    updates, small ``__slots__`` objects, the event heap and generator
    resumes.
    """
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    counts: dict = {}
    heap: list = []
    accumulator = _accumulate()
    next(accumulator)
    keys = [f"k{i}" for i in range(512)]
    for i in range(PASSES):
        key = keys[i & 511]
        item = _Item(key, i)
        counts[key] = counts.get(key, 0) + item.value
        heapq.heappush(heap, (i * 7 % 1000, i, item))
        if len(heap) > 64:
            heapq.heappop(heap)
        accumulator.send(i)
    return time.perf_counter() - wall_started, time.process_time() - cpu_started
