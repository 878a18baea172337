"""Host-speed reference for the contactplan benchmark.

On a shared host the speed of one process drifts with its neighbours' load,
by up to 2x within minutes, and CPU time drifts with wall time.  A fixed
reference loop run next to the measured code slows by the same factor, so
scaling a measured interval by ``REF_S`` over the reference time around it
cancels the drift: the result is the time the code would take on a host
that runs the reference loop in ``REF_S`` seconds.  The loop calls nothing
from ``contactplan``, so a change to the planner moves only the measured
code.

``HostClock`` keeps the timeline of reference samples.  The runner samples
before the first operation and after every one; while ``sampling()`` is
active, an interval timer also samples from inside any operation that runs
longer than ``SAMPLE_INTERVAL_S``, so a 30 s plan is calibrated along its
length and not only at its ends.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

REF_S = 0.2               # reference-loop time that adjusted seconds refer to
REF_ITERATIONS = 40000    # about REF_S on an unloaded 2-vCPU host
SAMPLE_INTERVAL_S = 1.0   # longest stretch of measured time between samples


def reference_loop(iterations: int = REF_ITERATIONS) -> float:
    """The fixed reference work: small rotations and products built from
    Python, the shape of the planner's kinematics work, so neighbour load
    slows both alike.  Returns a checksum."""
    angles = np.linspace(0.1, 0.6, 6)
    inertia = np.outer(angles, angles) + np.eye(6)
    total = 0.0
    for i in range(iterations):
        c, s = np.cos(angles[i % 6]), np.sin(angles[i % 6])
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        total += float((rotation @ inertia[:3, :3])[0, 1])
    if not np.isfinite(total):
        raise RuntimeError("reference loop produced a non-finite sum")
    return total


class HostClock:
    """Timeline of reference samples; converts intervals to host-adjusted
    seconds.

    Each sample is (wall start, wall end, CPU start, CPU end), read from
    ``time.perf_counter`` and ``time.process_time``.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple] = []
        self._busy = False
        self._timer = False
        reference_loop()  # warm-up, not recorded

    def sample(self) -> None:
        """Run the reference loop once and record it."""
        if self._busy:
            return
        self._busy = True
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            reference_loop()
            self.samples.append((wall0, time.perf_counter(), cpu0, time.process_time()))
        finally:
            self._busy = False
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    @contextmanager
    def sampling(self):
        """Also sample whenever ``interval`` seconds pass without a sample."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self._timer = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._timer = False
            signal.signal(signal.SIGALRM, previous)

    def scale(self, gap: int, clock: int = 0) -> float:
        """``REF_S`` over the mean reference time of samples ``gap`` and
        ``gap + 1``, on the wall (0) or CPU (1) clock."""
        before, after = self.samples[gap], self.samples[gap + 1]
        ref_s = (before[2 * clock + 1] - before[2 * clock]
                 + after[2 * clock + 1] - after[2 * clock]) / 2.0
        return REF_S / ref_s

    def adjust(self, start: float, end: float, clock: int = 0) -> tuple[float, float]:
        """(raw, host-adjusted) seconds of ``[start, end]`` on one clock.

        Reference samples inside the interval are left out of both.  Each
        stretch between two samples is scaled by the samples around it, so
        the interval must lie between the first and the last sample.
        """
        if not self.samples or start < self.samples[0][2 * clock + 1] \
                or end > self.samples[-1][2 * clock]:
            raise ValueError("interval not bracketed by reference samples")
        raw = adjusted = 0.0
        for gap, (before, after) in enumerate(zip(self.samples, self.samples[1:])):
            overlap = min(end, after[2 * clock]) - max(start, before[2 * clock + 1])
            if overlap > 0:
                raw += overlap
                adjusted += overlap * self.scale(gap, clock)
        return raw, adjusted
