"""Per-op timing corrected for the speed of a shared host.

The machine's speed drifts with other tenants' load, by 20% or more over
minutes and by as much within a second, and wall and CPU time drift
together.  So before each op, every SAMPLE_EVERY_S during it, and after the
last op of a pass, the benchmark times a fixed reference kernel that uses
only the standard library (exact ``Fraction`` sums, the kind of arithmetic
the package does).  An op's host factor is the mean of REF_S over each
kernel time taken before, during and just after it, and its corrected time
is its measured time multiplied by that factor: the seconds it would have
taken on the host the kernel was calibrated on.  Wall and CPU time each get the
factor of the kernel's own wall or CPU time.  The package never runs the
kernel, so a change to the package moves only the op times.
"""
from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

KERNEL_TERMS = 450
SAMPLE_EVERY_S = 0.05
# median kernel time on a quiet 2-vCPU Xeon VM, Python 3.11.7
REF_S = 0.00147


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        total += Fraction(1, i * i + 1)
    return total


def kernel_seconds() -> tuple[float, float]:
    """(wall, CPU) seconds of one kernel run.

    One run, not the fastest of several: the fastest would pick the moments
    the host ran fast, while an op runs through the slow ones too.  The
    garbage collector is paused meanwhile, which keeps a collection owed to
    the workload's garbage out of the kernel's time; the kernel frees all it
    allocates, so no collection moves.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def host_factor() -> float:
    """REF_S over the median wall time of five kernel timings made now."""
    return REF_S / statistics.median(kernel_seconds()[0] for _ in range(5))


class OpClock:
    """Wall and CPU time of each op of one pass, and the kernel's around it.

    The kernel is timed before each op, every SAMPLE_EVERY_S during it (from
    a SIGALRM handler, whose time is taken off the op's), and once more
    after the pass's last op.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        # samples[i]: (wall, CPU) kernel times taken before and during op i
        self.samples: list[list[tuple[float, float]]] = []
        self._paused = [0.0, 0.0]
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.samples[-1].append(kernel_seconds())
        self._paused[0] += time.perf_counter() - t0
        self._paused[1] += time.process_time() - c0

    @contextlib.contextmanager
    def op(self):
        self.samples.append([kernel_seconds()])
        self._paused = [0.0, 0.0]
        c0, t0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.wall.append(time.perf_counter() - t0 - self._paused[0])
            self.cpu.append(time.process_time() - c0 - self._paused[1])

    def finish(self) -> None:
        """Times the kernel once more, after the pass's last op."""
        self.samples.append([kernel_seconds()])

    def factors(self, which: int = 0) -> list[float]:
        """Each op's wall (``which`` 0) or CPU (1) host factor.

        The mean of REF_S over each kernel time taken before, during and just
        after the op: samples evenly spaced in time give the op's mean speed.
        """
        return [
            statistics.fmean(REF_S / t[which] for t in during + after[:1])
            for during, after in zip(self.samples, self.samples[1:])
        ]

    def corrected(self) -> tuple[list[float], list[float]]:
        """(wall, CPU) seconds of each op on the reference host.

        Wall times are scaled by the kernel's wall time, CPU times by its CPU
        time, so that a slice of time given to another process is not taken
        off the CPU time it never added to.
        """
        wall = [w * f for w, f in zip(self.wall, self.factors(0))]
        cpu = [c * f for c, f in zip(self.cpu, self.factors(1))]
        return wall, cpu
