"""Host-speed calibration kernel.

A fixed amount of pure-Python heap and dict work plus small NumPy array
ops, the same mix of interpreter and small-array work the workloads do.
It imports nothing from ``repro``, allocates little (a bounded heap, a
bounded dict, 64-element arrays), and runs with the cyclic garbage
collector disabled, so a large live heap left by the workload cannot
trigger a full collection inside the measurement and read as a slow host.

``child.py`` runs a full kernel at every phase boundary and a scaled-down
one on a timer in between (:class:`Sampler`); ``run.py`` rescales each
stretch's wall time with :func:`speed_factor` of the samples taken in it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import Callable, Optional

import numpy as np

#: Kernel time, in ms, that defines the reference host speed: about the
#: fast regime of the 2-vCPU x86-64 VM the benchmark was built on (Python
#: 3.11, NumPy 2.4).  Rescaled metrics read in seconds at this speed.
REFERENCE_CALIB_MS = 30.0
#: The :class:`Sampler` runs a ``SAMPLE_SCALE`` kernel every
#: ``SAMPLE_INTERVAL_S`` seconds; the benchmark's noise figures hold for
#: these values.
SAMPLE_INTERVAL_S = 0.025
SAMPLE_SCALE = 0.025

_HEAP_ITEMS = 18000
_HEAP_BOUND = 128
_ARRAY_OPS = 1800


def kernel(scale: float = 1.0) -> float:
    """Run the fixed kernel once with GC off; return its wall time in ms."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list[tuple[int, int]] = []
        table: dict[int, int] = {}
        x = 12345
        for i in range(int(_HEAP_ITEMS * scale)):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (x & 0xFFFF, i))
            if len(heap) > _HEAP_BOUND:
                heapq.heappop(heap)
            table[x & 0x3FF] = table.get(x & 0x3FF, 0) + i
        values = np.arange(64, dtype=np.float64)
        for _ in range(int(_ARRAY_OPS * scale)):
            values = np.sqrt(values * values + 1.0)
            mask = values > values.mean()
            values[mask] -= 1.0
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return elapsed * 1000.0


class Sampler:
    """Runs a small kernel on a wall-clock timer while the workload runs.

    The host's speed switches between regimes within a second, so kernels
    at phase boundaries alone sample it too sparsely.  A timer-driven
    kernel every ``SAMPLE_INTERVAL_S`` seconds samples it uniformly in
    time; the handler runs in the main thread between bytecodes, like the
    workload.
    Each sample is the kernel time scaled up to a full kernel, in ms.

    :meth:`window` reads the wall time and the samples of one stretch of
    the run, with the time spent inside the handler taken out.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._paused = False
        #: Called with each sample's duration; the traced run uses it to
        #: keep calibration out of every layer's self time.
        self.on_busy: Optional[Callable[[float], None]] = None

    def _tick(self, signum, frame) -> None:
        if self._paused:
            return
        start = time.perf_counter()
        self.samples.append(kernel(SAMPLE_SCALE) / SAMPLE_SCALE)
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        if self.on_busy is not None:
            self.on_busy(elapsed)

    def boundary(self) -> float:
        """Run one full kernel at a phase boundary, outside any window."""
        self._paused = True
        try:
            return kernel()
        finally:
            self._paused = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self) -> "Window":
        return Window(self)


class Window:
    """Net wall time and calibration samples of one stretch of a run."""

    def __init__(self, sampler: Sampler) -> None:
        self._sampler = sampler
        self._first = len(sampler.samples)
        self._busy = sampler.busy_s
        self._start = time.perf_counter()

    def close(self) -> dict:
        sampler = self._sampler
        wall = time.perf_counter() - self._start
        return {
            "wall_s": wall - (sampler.busy_s - self._busy),
            "samples_ms": sampler.samples[self._first:],
        }


def speed_factor(samples_ms: list[float]) -> float:
    """Reference-speed factor of a stretch sampled uniformly in time.

    Wall time at the reference speed is the integral of
    ``REFERENCE_CALIB_MS / kernel time`` over the stretch, so the factor
    is the mean of that ratio over the samples (a harmonic mean of the
    kernel times), not the ratio of the mean.
    """
    return sum(REFERENCE_CALIB_MS / s for s in samples_ms) / len(samples_ms)
