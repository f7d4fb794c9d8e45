"""Host speed sampled while the simulator runs, so that timings do not
drift with the host.

On a shared virtual machine the CPU time of fixed work drifts with
what the other tenants do: within one process, the same 64-core point
took between 1.7 and 2.9 CPU seconds a minute apart.  A
:class:`HostClock` interrupts the process every ``interval`` CPU
seconds (``SIGPROF``) and times a fixed pure-Python loop that touches
no simulator state.  The median probe time over a stretch of work is
the host's speed during that stretch, and :func:`to_reference` scales
the work's CPU time to what it reads at reference speed.  Scaled by
the probes taken during it, the CPU time of one point repeated in
one process spread by 5-8 % between quartiles instead of 19-38 %.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: loop iterations of one probe
PROBE_N = 4000

#: seconds one probe takes at reference speed, a typical median on a
#: 2-vCPU virtual Intel Xeon host (0.4-0.7 ms as the neighbours vary)
REFERENCE_PROBE_S = 0.0005


def probe() -> float:
    """Wall seconds of one fixed loop (too short to be preempted often;
    the process's CPU clock is too coarse to time it)."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_N):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


class HostClock:
    """Probes taken every ``interval`` CPU seconds of the process."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick that lands inside a probe is dropped
            self._busy = True
            self.samples.append(probe())
            self._busy = False

    def start(self, interval: float) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def take(self) -> List[float]:
        """The probes since the last call."""
        samples, self.samples = self.samples, []
        return samples


def to_reference(seconds: float, samples: List[float]) -> float:
    """``seconds`` of work during which ``samples`` were probed, less
    the probes themselves, at reference speed."""
    speed = statistics.median(samples or [probe() for _ in range(9)])
    return (seconds - sum(samples)) * REFERENCE_PROBE_S / speed
