"""Machine-speed correction for the benchmark's timings.

The benchmark runs on shared machines whose speed for pure-Python code
shifts by tens of percent between minutes, much the same for every piece
of code running at that moment.  A fixed probe, pure Python like csakit
but independent of it (bench_ref's word reduction and folding on fixed
inputs), runs every PROBE_EVERY_S on a SIGALRM timer, between queries
and inside long ones, with the garbage collector paused; callers take
the time spent in probes (``spent``) out of their measurements.  A
query's scaled time is its measured time times PROBE_REFERENCE_S over
the median probe time from PROBE_WINDOW_S before it starts to
PROBE_WINDOW_S after it ends: the time it would take on a machine that
runs the probe in PROBE_REFERENCE_S.
"""

import gc
import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

from bench_ref import FoldedGraph, reduce_word

PROBE_REFERENCE_S = 0.001
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 1.0
PROBE_BURST = 3


class Speedometer:
    def __init__(self):
        rng = random.Random(0)
        letters = (1, -1, 2, -2, 3, -3)
        self._word = tuple(rng.choice(letters) for _ in range(6000))
        self._gens = [tuple(rng.choice(letters) for _ in range(30))
                      for _ in range(8)]
        self.stamps = []    # when each probe burst ended
        self.probes = []    # median probe seconds of each burst
        self.spent = 0.0    # seconds spent in probe bursts so far
        self._previous_handler = None
        self.probe()

    def probe(self):
        """Run a burst of the probe and record its median time."""
        entered = perf_counter()
        burst = []
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(PROBE_BURST):
                start = perf_counter()
                reduce_word(self._word)
                FoldedGraph(self._gens).core_size()
                burst.append(perf_counter() - start)
        finally:
            if was_enabled:
                gc.enable()
        left = perf_counter()
        self.spent += left - entered
        self.stamps.append(left)
        self.probes.append(statistics.median(burst))

    def __enter__(self):
        """Probe on a timer until the block ends."""
        self._previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def scale(self, start, end):
        """Factor turning seconds measured in [start, end] into seconds at
        the reference speed; call after a burst that follows ``end``."""
        lo = bisect_left(self.stamps, start - PROBE_WINDOW_S)
        hi = bisect_right(self.stamps, end + PROBE_WINDOW_S)
        # at least the bursts just before and just after the interval
        lo = min(lo, max(bisect_left(self.stamps, start) - 1, 0))
        hi = max(hi, bisect_left(self.stamps, end) + 1)
        return PROBE_REFERENCE_S / statistics.median(self.probes[lo:hi])
