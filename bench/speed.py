"""The machine's speed, sampled between the calls a benchmark times.

The benchmark runs on a shared host whose speed for pure-Python work moves by
a third within seconds, with CPU time moving alongside wall time.  A run-long
average cannot remove that: ten runs land on different mixes of slow and fast
stretches.  So the benchmark runs a fixed reference kernel, which is its own
code and shares nothing with compnum, right before every timed call, and
divides each call's time by the speed measured around it.

A scaled time reads as the seconds the call would take on a machine on which
the reference kernel takes ``NOMINAL_S``.  On the 2-vCPU x86-64 host, Python
3.11, on which the benchmark was written, the kernel took 4.4 ms in fast
stretches and 8 ms in slow ones, so scaled times are of the size of raw ones.
The kernel runs with the garbage collector off, so the size of the heap the
program under test leaves behind does not change its time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

NOMINAL_S = 0.006
WINDOW_S = 0.25  # samples this close to an interval measure its speed
MIN_SAMPLES = 3

# A fixed 14-vertex graph, circulant with offsets 1, 2, 4 and 7.
_N = 14
_ADJ = [frozenset((v + d) % _N for d in (1, 2, 4, 7, -1, -2, -4, -7)) - {v} for v in range(_N)]


def reference_kernel() -> int:
    """Enumerate the fixed graph's maximal cliques, then cover its edges
    greedily with them: set algebra, recursion and small allocations, the
    kind of work compnum does."""
    cliques: list[frozenset[int]] = []

    def expand(clique: frozenset[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            cliques.append(clique)
            return
        pivot = max(cand | excl, key=lambda u: len(_ADJ[u] & cand))
        for v in sorted(cand - _ADJ[pivot]):
            expand(clique | {v}, cand & _ADJ[v], excl & _ADJ[v])
            cand.discard(v)
            excl.add(v)

    total = 0
    for _ in range(3):
        cliques.clear()
        expand(frozenset(), set(range(_N)), set())
        uncovered = {(u, v) for u in range(_N) for v in _ADJ[u] if u < v}
        while uncovered:
            best = max(cliques, key=lambda c: sum(1 for u, v in uncovered if u in c and v in c))
            uncovered = {(u, v) for u, v in uncovered if not (u in best and v in best)}
            total += 1
    return total


_EXPECTED = reference_kernel()


class Meter:
    """Samples of the reference kernel's time, and the scaling they imply."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.mids: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        """Run the kernel once and record when it ran and how long it took."""
        gc.disable()
        try:
            start = perf_counter()
            result = reference_kernel()
            end = perf_counter()
        finally:
            gc.enable()
        if result != _EXPECTED:
            raise RuntimeError("the reference kernel gave a different answer")
        self.starts.append(start)
        self.ends.append(end)
        self.mids.append((start + end) / 2)
        self.durations.append(end - start)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the kernel's median time near [start, end]: the
        factor that turns a time measured in that interval into a scaled one."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if hi - lo >= MIN_SAMPLES:
            near = self.durations[lo:hi]
        else:
            centre = (start + end) / 2
            i = bisect.bisect_left(self.mids, centre)
            around = range(max(0, i - MIN_SAMPLES), min(len(self.mids), i + MIN_SAMPLES))
            closest = sorted(around, key=lambda j: abs(self.mids[j] - centre))[:MIN_SAMPLES]
            near = [self.durations[j] for j in closest]
        return NOMINAL_S / statistics.median(near)

    def _inside(self, start: float, end: float) -> range:
        """The samples taken wholly inside [start, end]."""
        return range(bisect.bisect_left(self.starts, start), bisect.bisect_right(self.ends, end))

    def busy(self, start: float, end: float) -> float:
        """The time in [start, end] not spent sampling."""
        return end - start - sum(self.durations[j] for j in self._inside(start, end))

    def scaled(self, start: float, end: float) -> float:
        """busy(start, end) scaled, each stretch between two samples taken
        inside the interval by the speed around that stretch."""
        total, cursor = 0.0, start
        for j in self._inside(start, end):
            total += (self.starts[j] - cursor) * self.factor(cursor, self.starts[j])
            cursor = self.ends[j]
        return total + (end - cursor) * self.factor(cursor, end)
