"""Machine-speed calibration for the benchmark's end-to-end times.

The benchmark runs on shared machines whose speed for the same Python work
drifts by more than 1.5x within minutes, far more than any regression it must
catch. ``kernel`` is a few milliseconds of fixed pure-Python work of the same
kind as the program's hot loops (complex accumulation, phase binning, dict
buckets, bit tricks); it never touches the program. ``Sampler`` runs it on a
timer signal every ``PERIOD_S`` while an invocation runs, so the samples see
the same machine as the invocation. An end-to-end time is then reported as

    (measured seconds - kernel seconds) * REFERENCE_S / mean kernel sample

that is, the time the program would take on a machine where one kernel run
takes exactly ``REFERENCE_S``. A change to the program moves that figure as
it moves the measured time; drift of the machine moves both factors and
cancels. The raw measurements are recorded next to the scaled ones.

The kernel, ``REFERENCE_S`` and ``PERIOD_S`` are part of the benchmark's
definition: changing any of them changes every end-to-end figure.
"""

import math
import signal
import time
from contextlib import contextmanager

REFERENCE_S = 0.005
PERIOD_S = 0.1


def kernel() -> int:
    zs = [complex(((i * 7) % 13 - 6) / 3, ((i * 5) % 11 - 5) / 3) for i in range(48)]
    buckets: dict[tuple[int, int], float] = {}
    acc = [0j, 0j]
    gray = 0
    for k in range(1, 601):
        flip = (k & -k).bit_length() - 1
        gray ^= 1 << flip
        z = zs[flip % 48]
        worst = math.inf
        for m in range(2):
            acc[m] = acc[m] + z if gray & 1 else acc[m] - z
            w = acc[m] + zs[(k + m) % 48]
            p = w.real * w.real + w.imag * w.imag
            if p < worst:
                worst = p
        for z2 in zs[:8]:
            w = acc[0] + z2
            key = (int((math.atan2(w.imag, w.real) + math.pi) * 0.6366), k & 3)
            if buckets.get(key, -1.0) < worst:
                buckets[key] = worst
    return len(buckets)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Times ``kernel`` on a SIGALRM timer while a block of code runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(kernel_seconds())

    @contextmanager
    def running(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` of the sampled block, less the kernel's own time, at
        reference speed. A block shorter than one period gets one sample
        taken after it."""
        if not self.samples:
            self.samples.append(kernel_seconds())
            return wall_s * REFERENCE_S / self.samples[0]
        own = wall_s - sum(self.samples)
        return own * REFERENCE_S * len(self.samples) / sum(self.samples)
