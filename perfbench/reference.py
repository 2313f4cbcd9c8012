"""A fixed reference loop that gauges how fast the host runs right now.

The benchmark shares a few cores of a busy host, whose speed drifts by
tens of percent over a minute.  Each pass times this loop between its
units of work (diurnal epochs, sweep dispatch units) and reports its
run time also in multiples of the loop's time around each unit
(``run_ref``), which cancels the drift the loop sees as well.  The
loop is a small mix of what the program spends its time on: a heap of
tuples (the DES event queue), dict updates (path and flow tables) and
short NumPy calls (vectorised packing).  It calls nothing in ``src/``,
so a change to the program cannot move it, and ``run_ref`` compares
commits as long as this file stays as it is.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

import numpy as np

_KEYS = [(i * 7919) % 10007 for i in range(5000)]
_VEC = np.random.default_rng(12345).random(512)


def reference_s() -> float:
    """Wall-clock seconds of one pass of the fixed loop (about 5 ms).

    The garbage collector is off meanwhile: its passes scale with the
    program's live objects, which would make the loop's time depend on
    the state of the workload around it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_loop()
    finally:
        if enabled:
            gc.enable()


def _timed_loop() -> float:
    t0 = perf_counter()
    heap: list = []
    for i, key in enumerate(_KEYS):
        heapq.heappush(heap, (key, i))
    table: dict = {}
    while heap:
        key, i = heapq.heappop(heap)
        table[key % 251] = table.get(key % 251, 0) + i
    x = _VEC
    for _ in range(150):
        x = np.cumsum(np.sort(x)) / x.size
    if len(table) != 251 or not np.isfinite(x).all():
        raise AssertionError("reference loop miscomputed")
    return perf_counter() - t0


#: The loop's time on the host ``setup_s`` is expressed for: a set-up
#: is reported as ``seconds * NOMINAL_S / loop_s``, with ``loop_s`` the
#: median of ``SETUP_SAMPLES`` timings right after it.
NOMINAL_S = 0.005
SETUP_SAMPLES = 20


def samples(n: int) -> list[float]:
    """``n`` back-to-back timings of the loop."""
    return [reference_s() for _ in range(n)]


class Gauge:
    """Times units of work and the reference loop on both sides of each.

    Each unit's time is divided by the median of the loop timings taken
    just before and just after it, so a slow spell of the host counts
    against both.  ``run_ref`` sums these ratios, plus whatever time of
    a pass fell outside the units over the median of every timing.
    """

    def __init__(self, per_side: int):
        self.per_side = per_side
        self.samples: list[float] = []
        self.units_s = 0.0
        self.units_ref = 0.0
        self.overhead_s = 0.0  # spent timing the loop
        self.last_s = 0.0
        self._before: list[float] | None = None

    def setup_s(self, seconds: float) -> float:
        """A set-up that took ``seconds`` and ended just now, scaled to
        a host where the loop takes ``NOMINAL_S``.  The loop timings this
        takes are also the first unit's "before" side."""
        self._before = self._take(SETUP_SAMPLES)
        return seconds * NOMINAL_S / statistics.median(self._before)

    def _take(self, n: int | None = None) -> list[float]:
        t0 = perf_counter()
        taken = samples(n or self.per_side)
        self.samples += taken
        self.overhead_s += perf_counter() - t0
        return taken

    def run(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, timed as one unit."""
        if self._before is None:
            self._before = self._take()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.last_s = perf_counter() - t0
            after = self._take()
            self.units_s += self.last_s
            self.units_ref += self.last_s / statistics.median(self._before + after)
            self._before = after

    def run_ref(self, run_s: float) -> float:
        """``run_s`` (which contains every unit) in multiples of the loop."""
        return self.units_ref + (run_s - self.units_s) / statistics.median(self.samples)
