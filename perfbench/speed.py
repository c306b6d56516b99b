"""Machine speed sampled during a timed interval, to scale times to a reference speed.

On a shared vCPU the same code can run a third slower from one minute to
the next, with little steal time to show for it, so raw wall times of
identical code drift further apart than a useful regression bound.  The
slowdown is largely common to all interpreted code: a short kernel timed
next to the workload slows with it (correlation 0.91 to 0.97 over
one-second blocks; see README.md).

``Sampler`` is a context manager that times ``kernel`` every ``interval``
seconds from a SIGALRM handler while the measured code runs.  ``scaled``
turns the interval's wall time into seconds at the reference speed, where
one kernel takes ``REFERENCE_KERNEL_S``: the handler's own time is taken
out and the rest multiplied by the mean of ``REFERENCE_KERNEL_S / kernel``
over the samples, the measured speed relative to the reference.
"""

from __future__ import annotations

import signal
import time

# about the kernel's time on the 2-vCPU machine of perfbench/README.md, so
# scaled seconds read close to that machine's wall seconds
REFERENCE_KERNEL_S = 6.4e-4

# the step loop's Moebius recurrence over Python lists, then float formatting
# as the CSV writer does it: the two kinds of work the workloads spend most on
_A = [complex(0.01 * i, 0.02) for i in range(1000)]
_B = [complex(0.99, 0.01 * i) for i in range(1000)]


def kernel() -> float:
    """Run the calibration kernel once; return its wall time."""
    start = time.perf_counter()
    chi = 0j
    for i in range(1000):
        aj = _A[i]
        chi = aj + _B[i] * chi / (1.0 - aj * chi)
    ",".join([f"{v.real:.11e}" for v in _A[:200]])
    return time.perf_counter() - start


class Sampler:
    """Times the kernel every ``interval`` seconds while the block runs."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # interval shorter than one period
            self.samples.append(kernel())
        return False

    def speed(self) -> float:
        """Measured speed relative to the reference, mean over the samples."""
        return sum(REFERENCE_KERNEL_S / d for d in self.samples) / len(self.samples)

    def scaled(self, wall_s: float) -> float:
        """Seconds the interval would have taken at the reference speed."""
        return (wall_s - self.spent) * self.speed()
