"""Machine-speed probe: rescales a measured time to a fixed reference speed.

On a shared virtual machine the speed of a core drifts with the load other
guests put on the host.  On a 2-vCPU KVM guest (Intel Xeon) a fixed
pure-Python loop ran in 4.2 ms for minutes on end and then in 6.7 ms for
minutes more, so a pass timed early and one timed late differ by up to 1.6x
for the same work, and no choice of run length or of median hides that.

``SpeedProbe.timed`` therefore times a fixed reference loop every
``PERIOD_S`` seconds of wall time while the measured code runs (from a
``SIGALRM`` handler, which Python runs between two bytecodes of whatever is
executing), plus ``EDGE_SAMPLES`` times just before and just after.  The
speed of one sample is ``REFERENCE_S`` over its duration, so 1.0 is the
reference speed and 0.65 a core running at 65% of it.  A timing reports:

* ``raw_wall``, ``raw_cpu``: elapsed wall and process CPU time, minus the time
  spent in the probe itself;
* ``speed``: the mean speed of the samples.  Samples are taken at even steps
  of wall time, so the mean speed weights every stretch of the run by its
  length, and ``raw_wall * speed`` is the time the same work takes at the
  reference speed;
* ``wall``, ``cpu``: ``raw_wall * speed`` and ``raw_cpu * speed``.

The probe costs about 2% of a pass.  It changes nothing the measured code
computes.
"""
from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, process_time

PERIOD_S = 0.05
EDGE_SAMPLES = 8
# duration of one reference_loop() at the reference speed, chosen so that a
# pass on the 2-vCPU KVM guest above (Python 3.11.7) reads about 1.0
REFERENCE_S = 7.0e-4


def reference_loop() -> Fraction:
    """A fixed piece of exact rational arithmetic, like the sweeps' own."""
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
    return acc


@dataclass
class Timing:
    raw_wall: float = 0.0
    raw_cpu: float = 0.0
    speed: float = 0.0
    samples: int = 0

    @property
    def wall(self) -> float:
        return self.raw_wall * self.speed

    @property
    def cpu(self) -> float:
        return self.raw_cpu * self.speed


class SpeedProbe:
    """Samples the speed of the core the process runs on while code is timed."""

    def __init__(self):
        self.speeds: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self) -> None:
        w0, c0 = perf_counter(), process_time()
        reference_loop()
        w1 = perf_counter()
        self.speeds.append(REFERENCE_S / (w1 - w0))
        self.spent_wall += w1 - w0
        self.spent_cpu += process_time() - c0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def timed(self):
        """Time the body of the ``with``; the Timing is filled in on exit."""
        timing = Timing()
        first = len(self.speeds)
        for _ in range(EDGE_SAMPLES):
            self.sample()
        spent_wall, spent_cpu = self.spent_wall, self.spent_cpu
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        w0, c0 = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            w1, c1 = perf_counter(), process_time()
            signal.signal(signal.SIGALRM, previous)
        timing.raw_wall = w1 - w0 - (self.spent_wall - spent_wall)
        timing.raw_cpu = c1 - c0 - (self.spent_cpu - spent_cpu)
        for _ in range(EDGE_SAMPLES):
            self.sample()
        timing.speed = statistics.fmean(self.speeds[first:])
        timing.samples = len(self.speeds) - first
