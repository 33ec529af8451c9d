"""Machine-speed normalization of wall times.

The bench host is a 2-vCPU virtual machine whose speed drifts. A fixed
pure-Python loop, timed in 10-second windows over 2.5 minutes, took
between 15 and 27 ms per call; the quartile spread was 33% of the median.
No run length or median removes that. The drift is shared by all
interpreter work on one vCPU, but the two vCPUs drift independently:
kernel times sampled alternately on each correlated at 0.08.

So the benchmark pins its in-process work to one CPU and runs a fixed
reference kernel there every EVERY_S of workload time, at the workload's
own boundaries. Each stretch of workload time is divided by the slowdown
the kernel measured around it. While other processes work on both CPUs
(the pooled suite), a thread times the kernel on each CPU in turn, and
the stretch is divided by the median slowdown it saw. Times then read as
if one kernel call took KERNEL_NOMINAL_S. The program under test never
calls the kernel, so a faster program still shows as a smaller time.

The kernel runs with the cyclic garbage collector off. Its temporaries
would otherwise set off collections that walk the program's live heap, and
a program that holds more memory would slow the kernel down with it and
cancel its own slowdown. With collection off, that work lands in the
program's time instead.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from contextlib import contextmanager

KERNEL_ITERATIONS = 450
KERNEL_NOMINAL_S = 1e-3
EVERY_S = 0.02  # workload time between kernel calls
BOUNDARY_CALLS = 10  # kernel calls around a stretch the bench cannot split
_FIELDS = {f"r{k}": k for k in range(6)}


def kernel() -> int:
    """Fixed interpreter work shaped like the engine's state handling:
    copy a small dict, sort its items into a tuple key, hash it."""
    out = 0
    for i in range(KERNEL_ITERATIONS):
        state = dict(_FIELDS)
        state["r1"] = i
        state["r3"] = i % 7
        key = (i, tuple(sorted(state.items())),
               tuple(sorted(k for k, v in state.items() if v)))
        out ^= hash(key)
    return out


def timed_kernel(calls: int) -> tuple[float, float]:
    """Run `calls` kernel calls with collection off; (start, end) times."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(calls):
            kernel()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return t0, t1


def cpus() -> list[int]:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


@contextmanager
def pinned(cpu_set):
    """Run the block (and processes it starts) on the given CPUs only."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpu_set)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class SpeedReference:
    """Kernel calls interleaved with the workload at its own boundaries.

    The timeline splits into segments between kernel calls; segment j
    lies between measurement j-1 and measurement j. Its slowdown is the
    mean per-call kernel time of those two over the nominal time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.per_call: list[float] = []
        self.due = 0.0

    @property
    def segment(self) -> int:
        """Index of the segment the workload is in now."""
        return len(self.starts)

    def measure(self, calls: int = 1) -> None:
        """Time `calls` kernel calls back to back; ends the current segment."""
        t0, t1 = timed_kernel(calls)
        self.starts.append(t0)
        self.ends.append(t1)
        self.per_call.append((t1 - t0) / calls)
        self.due = t1 + EVERY_S

    def tick(self) -> None:
        """Call at a workload boundary; measures when a call is due."""
        if time.perf_counter() >= self.due:
            self.measure()

    def slowdown(self, segment: int) -> float:
        """Measured over nominal kernel time around one segment."""
        around = self.per_call[segment - 1] + self.per_call[segment]
        return around / 2 / KERNEL_NOMINAL_S

    def normalized_total(self) -> float:
        """Workload time between the first and last call, at nominal speed."""
        return sum(
            (self.starts[j] - self.ends[j - 1]) / self.slowdown(j)
            for j in range(1, len(self.starts))
        )


class BackgroundSampler:
    """Kernel timings taken on each CPU in turn while other processes work.

    The sampling thread pins itself (only itself) to one CPU at a time and
    takes one kernel call every EVERY_S, about 5% of one CPU.
    """

    def __init__(self):
        self.per_call: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "BackgroundSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        allowed = cpus()
        turn = 0
        while not self._stop.wait(EVERY_S):
            # on Linux, pid 0 sets the affinity of the calling thread only
            os.sched_setaffinity(0, {allowed[turn % len(allowed)]})
            turn += 1
            t0, t1 = timed_kernel(1)
            self.per_call.append(t1 - t0)

    def slowdown(self) -> float:
        return statistics.median(self.per_call) / KERNEL_NOMINAL_S
