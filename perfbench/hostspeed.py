"""Host-speed sampling, so that timings on a shared host can be compared.

On a shared host the CPU throughput of one process swings by up to 2x, in
phases from a fraction of a second to tens of seconds, and the two vCPUs of
a 2-vCPU virtual machine swing nearly independently.  No run length averages
that out, and a calibration run before or after a timed region misses what
happened during it.  So while a region runs, a real-time interval timer interrupts it
every ``INTERVAL_S`` and runs one ``burst``: a fixed numpy kernel of small
spectral steps on rows of N=256, like the program's RK4 and transport steps,
that uses nothing of fwlab.  The region's time is its wall time minus the
bursts', and ``rescale`` turns it into the seconds it would take at the
reference speed, ``REF_BURST_S`` per burst.  A change to fwlab moves the
rescaled time in proportion to its raw time; only the host's speed is divided
out.

The bursts add about 4% to a region's wall time.  The signal handler runs
between bytecodes of the main thread, so it reads no state of the program and
changes none of its outputs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds between two bursts inside a timed region
INTERVAL_S = 0.25
#: small spectral steps in one burst (about 6-10 ms on the reference machine)
BURST_STEPS = 200
#: mean time of one burst in a quiet phase of the reference machine, a 2-vCPU
#: x86_64 Xeon VM with Python 3.11 and numpy 2.4
REF_BURST_S = 0.006

_ROWS = np.random.default_rng(0).standard_normal((2, 256))
_IK = 1j * np.fft.fftfreq(256)


def burst() -> float:
    """Run the kernel once; return its wall time in seconds."""
    # the functions are looked up here, so a tracer's wrappers would be
    # timed too; the benchmark samples only untraced regions
    fft, ifft = np.fft.fft, np.fft.ifft
    x = _ROWS.copy()
    t0 = time.perf_counter()
    for _ in range(BURST_STEPS):
        x = x + 1e-3 * ifft(fft(x, axis=-1) * _IK, axis=-1).real
    return time.perf_counter() - t0


def rescale(seconds: float, bursts: list[float]) -> float:
    """``seconds`` of work at the reference speed, given the burst times
    measured while it ran."""
    return seconds * REF_BURST_S / statistics.fmean(bursts)


class Sampler:
    """Context manager that times a region and samples the host's speed.

    After the ``with`` block, ``wall_s`` is the region's wall time without
    the bursts, ``bursts`` the burst times, and ``scaled_s`` the region's
    time at the reference speed.  A region shorter than ``INTERVAL_S`` gets
    one burst right after it.
    """

    def __init__(self):
        self.bursts: list[float] = []
        self.wall_s = self.scaled_s = None
        self._on = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._on:
            self.bursts.append(burst())

    def __enter__(self):
        self.bursts = []
        self.wall_s = self.scaled_s = None
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._on = True
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        # a signal already pending runs the handler at the next bytecode
        self._on = False
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        if exc[0] is not None:
            return False
        self.wall_s = wall - sum(self.bursts)
        if not self.bursts:
            self.bursts.append(burst())
        self.scaled_s = rescale(self.wall_s, self.bursts)
        return False
