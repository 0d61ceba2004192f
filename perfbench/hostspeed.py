"""Host-speed calibration for the end-to-end times.

A shared host's speed drifts: a fixed campaign repeated on a 2-vCPU
share took 94-231 ms as 5-s window medians over two and a half
minutes, with CPU time tracking wall time (neighbours' load on shared
cores, not preemption).  Twenty-second runs at different moments then
spread by more than any useful regression bound.

So the benchmark times a fixed calibration kernel beside its ops and
scales each op's time by how slow the host was around it.  The kernel
is independent of the program - a pure-Python integer/dict loop plus
a numpy uint64 bitwise loop, the two kinds of work the simulator
does - and is timed in its own thread's CPU seconds, so that sharing a
CPU with the program's processes does not count.  Over the same 2.5
minutes, op time / kernel time per window spread 6-8 % (IQR/median)
where the op time alone spread 27 %.

:meth:`HostSpeed.seconds` turns a wall interval into *reference
seconds*: seconds on a host on which one kernel run takes ``REF_S``
CPU seconds.  ``REF_S`` only fixes the unit; it is the kernel's time
on a quiet 2.1 GHz Xeon vCPU.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Tuple

import numpy as np

#: Kernel CPU seconds on the reference host.
REF_S = 0.005
#: Samples within this many seconds of an interval judge its speed.
#: Host speed changes within a second: over seven 30-s characterize
#: runs, op_p50_ms spread 6.6 % (IQR/median) with a 1-s window, 4.7 %
#: with 0.2 s and 14.9 % with one scale for the whole run.
WINDOW_S = 0.2
#: Fewer samples in the window: use this many nearest ones instead.
MIN_SAMPLES = 3
#: Longer intervals are scaled piecewise, in segments this long.
SEGMENT_S = 1.0

_WORDS = np.random.default_rng(0).integers(0, 2 ** 63, size=4096,
                                           dtype=np.uint64)


def kernel() -> float:
    """Run the calibration kernel once; its thread CPU seconds."""
    t0 = time.thread_time()
    table: dict = {}
    x = 12345
    for _ in range(10000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + (x >> 7)
    words = _WORDS
    for _ in range(100):
        words = (words ^ (words << np.uint64(3))) & _WORDS
        int(np.bitwise_count(words).sum())
    return time.thread_time() - t0


class HostSpeed:
    """Kernel samples ``(wall time, kernel CPU seconds)`` of one run."""

    def __init__(self) -> None:
        kernel()  # first-call allocations
        self.samples: List[Tuple[float, float]] = []
        #: Wall seconds spent sampling outside the background thread.
        self.foreground_s = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread = None  # type: ignore[assignment]

    def sample(self, n: int = 1) -> None:
        t0 = time.perf_counter()
        for _ in range(n):
            t = time.perf_counter()
            self.samples.append((t, kernel()))
        if threading.current_thread() is not self._thread:
            self.foreground_s += time.perf_counter() - t0

    def start(self, interval_s: float = 0.1) -> None:
        """Sample from a background thread every ``interval_s`` (for
        workloads whose main thread waits on other processes)."""
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval_s):
                self.sample()

        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None  # type: ignore[assignment]

    def scale(self, a: float, b: float) -> float:
        """Reference seconds per wall second over ``[a, b]``."""
        samples = sorted(self.samples)
        times = [t for t, _ in samples]
        lo = bisect.bisect_left(times, a - WINDOW_S)
        hi = bisect.bisect_right(times, b + WINDOW_S)
        near = samples[lo:hi]
        if len(near) < MIN_SAMPLES:
            mid = (a + b) / 2
            near = sorted(samples, key=lambda s: abs(s[0] - mid))
            near = near[:MIN_SAMPLES]
        if not near:
            raise RuntimeError("no host-speed samples")
        return REF_S / statistics.median(cost for _, cost in near)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds in the wall interval ``[a, b]``."""
        pieces = max(1, int((b - a) / SEGMENT_S))
        step = (b - a) / pieces
        return sum(step * self.scale(a + i * step, a + (i + 1) * step)
                   for i in range(pieces))
