"""Host-speed calibration: scale CPU times to a fixed reference speed.

On a shared virtual machine the speed of the CPU itself drifts: the same
pure-Python work takes 1.5x longer for seconds at a time while neighbours are
busy, in CPU time as well as wall time.  The benchmark therefore runs `loop`,
a fixed piece of pure-Python work that belongs to the benchmark and not to
revisekit, next to the ops.  Every op's CPU time is multiplied by
REFERENCE_S / (median CPU time of the loop runs within WINDOW_S of the op).
The figures are thus milliseconds at the speed at which the loop takes
REFERENCE_S, and a change to revisekit cannot move the loop.
"""

from __future__ import annotations

import resource
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, process_time

REFERENCE_S = 0.007  # loop CPU time at the reference speed
WINDOW_S = 0.5       # wall-clock half-width of the window around an op
EVERY_S = 0.1        # op CPU time between two loop runs, at most


def cpu_clock() -> float:
    """CPU seconds of this process, all its threads, plus those of the child
    processes it has waited for, so that work moved off the calling thread is
    still charged."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class _Cell:
    __slots__ = ("key", "count")

    def __init__(self, key: tuple, count: int):
        self.key = key
        self.count = count


def loop() -> int:
    """Dicts, tuples, strings, small objects and a sort: the kinds of work
    revisekit does, at a fixed size."""
    cells: dict[tuple, _Cell] = {}
    for i in range(5000):
        key = ("k", i % 211, str(i % 977))
        cell = cells.get(key)
        if cell is None:
            cells[key] = _Cell(key, 1)
        else:
            cell.count += 1
    return len(sorted(cells, key=lambda k: (k[2], k[1])))


class Speed:
    """Loop timings by wall-clock time, and the scale factor they give."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        t = cpu_clock()
        loop()
        cpu = cpu_clock() - t
        self.at.append(perf_counter())
        self.cpu.append(cpu)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median loop time near the interval."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        near = self.cpu[lo:hi] or self.cpu[max(0, lo - 1):lo + 1]
        return REFERENCE_S / statistics.median(near)


def process_factor() -> float:
    """Scale factor for a short-lived process: the median of a burst of loops."""
    speed = Speed()
    for _ in range(9):
        speed.sample()
    return REFERENCE_S / statistics.median(speed.cpu)
