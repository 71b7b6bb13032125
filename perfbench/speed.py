"""Host speed meter.

The benchmark runs on shared virtual machines whose speed is not constant:
on a 2-vCPU host the same pure-Python code ran about 1.8x slower in phases
that switch within tens of milliseconds and can last minutes.  Whole runs
of the same commit then differ by more than any bound worth keeping.

So the benchmark keeps measuring the host's speed while it times hopfloop.
``probe`` is a fixed piece of pure-Python work that does not touch
hopfloop: exact Fraction arithmetic, dict updates on tuple keys, nested
list indexing and small function calls, the operations hopfloop's checkers
spend their time on.  On that host the probe, search_ip_loops(5) and
check_bialgebra_compat on a group algebra all slowed by the same factor
(1.79) from the fast phase to the slow one.  A Meter runs it BRACKET times before and after every
timed group of runs, and, while it is started, once every INTERVAL_S from a
SIGALRM handler, so that longer runs are sampled inside as well.  The
probes' own time is taken out of the runs they interrupt.

Since the speed changes that fast, a run is compared with the probes taken
during it and within WINDOW_S of it, and with no others.  A run of t seconds whose probe samples took p_k seconds is
reported as ``t * REFERENCE_S * mean(1 / p_k)``: the time it would have
taken at the speed at which the probe takes REFERENCE_S.  A change to
hopfloop moves t and leaves the p_k alone, so it shows in full; a slow
phase of the host moves both, and cancels.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

# probe() on the reference machine (2-vCPU virtual machine, Python 3.11.7)
# in its fast phase.  Only fixes the scale of the reported times; it never
# needs to match the machine the benchmark runs on.
REFERENCE_S = 0.00017
INTERVAL_S = 0.005
WINDOW_S = 0.005
BRACKET = 5

_ROWS = [[(3 * a + 5 * b + a * b) % 7 for b in range(7)] for a in range(7)]


def _step(acc, i):
    return acc + Fraction(i, i + 1) * Fraction(3, 7 + i % 5)


def probe():
    acc, counts = Fraction(0), {}
    for i in range(1, 25):
        acc = _step(acc, i)
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + i
    rows, same = _ROWS, 0
    for a in range(7):
        for b in range(7):
            rab = rows[a][b]
            for c in range(7):
                same += rows[rab][c] == rows[a][rows[b][c]]
    return acc, counts, same


class Meter:
    """Probe samples: their start times and their durations, in order."""

    def __init__(self):
        self.starts, self.times = [], []
        self._busy = False

    def bracket(self, n=BRACKET):
        self._busy = True
        for _ in range(n):
            t0 = time.perf_counter()
            probe()
            self.times.append(time.perf_counter() - t0)
            self.starts.append(t0)
        self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:
            self.bracket(1)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.times)

    def probe_seconds(self, since, until):
        """Time spent in probes taken since mark ``since`` and started
        before time ``until``."""
        return sum(self.times[since:bisect.bisect_left(self.starts, until)])

    def scale(self, t0, t1):
        """Factor from seconds to seconds at the reference speed for a run
        from t0 to t1, from the probes within WINDOW_S of it (at least the
        two nearest)."""
        i = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        j = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        while j - i < 2:
            i, j = max(0, i - 1), min(len(self.times), j + 1)
        return REFERENCE_S * statistics.fmean(
            1 / p for p in self.times[i:j])

    def median_ms(self):
        return 1000 * statistics.median(self.times)

    def warm_up(self, rounds=200):
        for _ in range(rounds):
            probe()
