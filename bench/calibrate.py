"""Speed of the machine at the moment, from a fixed calibration kernel.

The benchmark's host is shared, and its speed drifts with its neighbours'
load: the same request runs up to twice as slow from one hour to the next,
and 10-30 % slower or faster from one second to the next.  So the worker
times this kernel once a second while it runs (SpeedProbe), and the
end-to-end times are reported at a fixed reference speed: a request that
took t seconds, while the kernel took c seconds on average from WINDOW_S
before the request to WINDOW_S after it, took t * REF_KERNEL_S / c at the
reference speed.

The kernel does the kinds of work the program does, on fixed inputs: a
pivot-at-a-time elimination over F_3 (small numpy operations driven from a
Python loop, as in `linalg`), an integer matrix product reduced mod 3, numpy
permutation composition (as in `groups`) and a plain Python loop.  Of the
kernels tried beside the program's requests, the elimination followed their
changes of speed best; a memory-streaming numpy loop followed them worse.
It uses nothing from the program, so no change to the program changes it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# The time the kernel takes at the reference speed.  On the 2-vCPU reference
# machine it took 28-68 ms over sixty runs (median 42 ms), by the load of
# the host.
REF_KERNEL_S = 0.050
INTERVAL_S = 1.0
# how far before and after a request the samples that scale it are taken:
# the speed changes from one second to the next, and a short request is
# better scaled by the samples near it than by those of the whole run
WINDOW_S = 1.0


_RNG = np.random.default_rng(12345)
_A0 = _RNG.integers(0, 3, size=(120, 160), dtype=np.int64)
_B0 = _RNG.integers(0, 3, size=(200, 200), dtype=np.int64)
_P0, _Q = _RNG.permutation(2000), _RNG.permutation(2000)
# Work buffers, made once, so that a sample allocates little: allocations
# interleaved with the program's fragment its heap and lift its peak RSS (a
# kernel that compiled Python source lifted order-cert's by 33 MiB).
_A, _OUTER, _B = np.empty_like(_A0), np.empty_like(_A0), np.empty_like(_B0)


def kernel() -> int:
    """One fixed unit of work; returns a checksum of what it computed."""
    a = _A
    a[...] = _A0
    r = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        p = r + nz[0]
        a[[r, p]] = a[[p, r]]
        a[r] *= a[r, c]  # 1 and 2 are their own inverses mod 3
        a[r] %= 3
        f = a[:, c].copy()
        f[r] = 0
        np.outer(f, a[r], out=_OUTER)
        a -= _OUTER
        a %= 3
        r += 1
        if r == a.shape[0]:
            break
    np.matmul(_B0, _B0, out=_B)
    np.remainder(_B, 3, out=_B)
    perm = _P0
    for _ in range(400):
        perm = _Q[perm]
    x = 0
    for i in range(20000):
        x = (x * 31 + i) % 1000003
    return r + int(_B.sum()) + int(perm[:10].sum()) + x


def sample() -> float:
    """Seconds one run of the kernel takes now.

    The garbage collector is held off meanwhile: a collection the kernel's
    allocations set off would walk the program's heap, whose size says
    nothing about the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times the kernel every INTERVAL_S of wall time while it is entered.

    The samples come from a timer signal, so they cover a run evenly, the
    inside of a long request as well as the gaps between requests, and
    their mean over an interval is the kernel's time averaged over it, as a
    request's time is.  `clock()` is a perf_counter that stands still while
    the kernel runs, so that what is timed with it leaves the probe's own
    work out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # perf_counter at the start of each sample
        self._spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that comes while the kernel runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            dt = sample()
        finally:
            self._busy = False
        self.times.append(t0)
        self.samples.append(dt)
        self._spent += dt

    def clock(self) -> float:
        while True:  # read again if a tick came between the two reads
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:
                return now - spent

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """What a time measured from perf_counter `start` to `end` is multiplied
        by to be at the reference speed; without them, a time over the whole probe."""
        if not self.samples:
            self.times.append(time.perf_counter())
            self.samples.append(sample())
        near = self.samples
        if start is not None:
            near = [c for t, c in zip(self.times, self.samples) if start - WINDOW_S <= t <= end + WINDOW_S]
            if not near:  # the nearest sample
                mid = (start + end) / 2
                near = [min(zip(self.times, self.samples), key=lambda tc: abs(tc[0] - mid))[1]]
        return REF_KERNEL_S / statistics.fmean(near)

    def __enter__(self) -> SpeedProbe:
        for _ in range(2):  # the first runs of the kernel are slower: memory is still to be mapped
            kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
