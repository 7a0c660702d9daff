"""Host-speed probes: a fixed kernel timed at regular intervals during a run.

On a shared host the same operation can run 1.5 to 2 times slower for tens
of seconds at a time, because other tenants load the core; the process's CPU
time slows with it, so neither wall nor CPU time separates the program's cost
from the host's state.  A probe times one fixed kernel that has nothing to do
with supcenter: the row operations of dense tableau pivots in numpy.  Its
duration tracks the host's speed.

``Prober.start`` arms an interval timer; each SIGALRM runs one probe in the
main thread between bytecodes, so probes also land inside long operations.
An operation's latency is its wall time minus the probes that ran inside it,
and its normalised latency scales that by the mean of the probe's nominal
duration over each probe around it: the probes inside it plus the last two
before it and the first two after it.  The probes fire at even intervals, so
inside a long operation the mean weighs each stretch of it by its own speed;
a median would take the whole operation at the speed of whichever state the
host held more than half of the time.  Normalised figures read as the times
the run would show on a host where one probe takes its nominal duration.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# nominal cost of one pivot on each tableau, about what it takes on this
# benchmark's reference host (2-core sandbox, numpy 2.4); any fixed values
# would do, since parent and change are compared with the same ones
SMALL_PIVOT_S = 1.0e-5
TALL_PIVOT_S = 3.6e-5
INTERVAL_S = 0.01
# probes taken on each side of an operation, besides those inside it
AROUND = 2

_SMALL = np.random.default_rng(20210801).normal(size=(40, 8))
_TALL = np.random.default_rng(20210802).normal(size=(700, 12))


def _pivots(tableau: np.ndarray, count: int, stride: int) -> float:
    """The row operations of ``count`` tableau pivots, driven from the
    interpreter as supcenter's simplex drives them."""
    tab = tableau.copy()
    rows, cols = tab.shape
    for k in range(count):
        row, col = k * stride % rows, k % cols
        pivot = tab[row, col]
        tab[row] /= pivot if abs(pivot) > 0.1 else 1.0
        tab -= np.outer(tab[:, col], tab[row]) * 1e-3
        int(np.argmin(tab[:, col]))
    return float(tab[0, 0])


def kernel(small: int, tall: int) -> float:
    """Pivots on a 40 x 8 and on a 700 x 12 tableau: the shapes of the
    programs the repair and stability workloads solve, and of the renorm
    workload's gauge-distance programs."""
    return _pivots(_SMALL, small, 1) + _pivots(_TALL, tall, 97)


class Prober:
    """Probe starts and durations, in perf_counter seconds.  ``mix`` is the
    kernel's (small, tall) pivot counts; each workload picks the mix whose
    slow-down on a loaded host follows that of its own operations."""

    def __init__(self, mix: tuple[int, int], interval: float = INTERVAL_S):
        self.mix = mix
        self.nominal = mix[0] * SMALL_PIVOT_S + mix[1] * TALL_PIVOT_S
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        t = perf_counter()
        kernel(*self.mix)
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def start(self) -> None:
        self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def normalise(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall time of [t0, t1] less the probes inside it, that time
        scaled to the nominal host speed)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.durations[lo:hi])
        around = self.durations[max(lo - AROUND, 0):hi + AROUND]
        own = t1 - t0 - inside
        return own, own * statistics.fmean(self.nominal / d for d in around)

    def speed(self) -> float:
        """Median probe duration over the nominal one: 1 at nominal speed,
        2 at half."""
        return statistics.median(self.durations) / self.nominal
