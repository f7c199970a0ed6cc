"""Reference seconds: wall time rescaled by a fixed interpreter-bound kernel.

On a small shared VM the speed of one vCPU drifts by tens of percent
between processes and persists for tens of milliseconds.  A fixed loop
timed right next to a chunk of program work sees the same drift, so
dividing the chunk's wall time by the loop's time (and multiplying by
the loop's nominal time) cancels the host's speed while keeping any
slowdown of the program itself.

A :class:`Timeline` alternates measured segments with kernel probes:
segment ``i`` is followed by kernel probe ``i``.  Each segment is
rescaled by the median of the four probes around it (two before, two
after).
"""

from __future__ import annotations

import math
import os
import statistics
import time

#: Kernel time on the host the benchmark was calibrated on (x86-64,
#: 2 vCPUs, CPython 3.11).  Reference seconds equal wall seconds there.
#: Fixed: change it only in a benchmark-only change.
NOMINAL_KERNEL_S = 0.5e-3

#: Loop trips of each half of the kernel (together about 1 ms on the
#: calibration host).
KERNEL_ITERATIONS = 2500
#: Entries of the large table: several MB, beyond the private caches.
LARGE_TABLE = 1 << 17


class _Probe:
    """The kernel's data: a 64-entry table that stays in L1 and a large
    table read in a scattered order.  Built once, before the first
    timing, and only read after that: the kernel allocates no GC-tracked
    objects, so the size of the program's heap cannot slow it down."""

    __slots__ = ("small", "large", "keys")

    def __init__(self) -> None:
        self.small = {i: i * 7 for i in range(64)}
        self.large = {(i * 2654435761) % (1 << 32): i for i in range(LARGE_TABLE)}
        self.keys = tuple(self.large)

    def step(self, i: int) -> int:
        return self.small[i & 63]


_PROBE: _Probe | None = None


def kernel_seconds() -> float:
    """Run the reference kernel once; its CPU time in this thread.

    Two halves of dict lookups and bound-method calls: one on the small
    table (core speed), one on the large table (core speed plus the
    memory hierarchy, which other tenants contend for).  The kernel time
    is the geometric mean of the two halves' ``thread_time``.  On the
    calibration host neither half alone tracked the program's speed as
    well as the geometric mean did: over six runs of order_flow, the
    IQR of normalised throughput was 14% with the small half, 11% with
    the large half and 4% with their geometric mean.
    """
    global _PROBE
    if _PROBE is None:
        _PROBE = _Probe()
    small, large, keys, step = _PROBE.small.get, _PROBE.large.get, _PROBE.keys, _PROBE.step
    mask = LARGE_TABLE - 1
    total = 0
    started = time.thread_time()
    for i in range(KERNEL_ITERATIONS):
        total += small(i & 63) + step(i)
    middle = time.thread_time()
    for i in range(KERNEL_ITERATIONS):
        total += large(keys[(i * 7919) & mask]) + step(i)
    ended = time.thread_time()
    return math.sqrt((middle - started) * (ended - middle))


def kernel_seconds_all_cores() -> float:
    """The kernel once on each CPU this process may use, geometric mean.

    For work that runs in other processes as well as in this thread:
    each vCPU drifts on its own, so the probe visits every core.
    """
    cpus = os.sched_getaffinity(0)
    product = 1.0
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            product *= kernel_seconds()
    finally:
        os.sched_setaffinity(0, cpus)
    return product ** (1.0 / len(cpus))


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def block_percentile(values: list[float], q: float, blocks: int = 3) -> float:
    """Median over ``blocks`` consecutive parts of ``values`` of each
    part's percentile: a host stall that hits one part of a run moves
    one block's tail, not the reported one."""
    size = len(values)
    return statistics.median(
        percentile(values[i * size // blocks : (i + 1) * size // blocks], q)
        for i in range(blocks)
    )


class Timeline:
    """Measured segments separated by kernel probes.

    ``restart()`` starts a segment now (dropping time since the last
    cut, e.g. input generation); ``cut()`` ends the current segment and
    runs a probe.  Segments are wall time from ``time.perf_counter``.
    """

    def __init__(self, start: float | None = None) -> None:
        self.walls: list[float] = []
        self.kernels: list[float] = []
        self.probe = kernel_seconds
        self._start = time.perf_counter() if start is None else start

    def restart(self) -> None:
        self._start = time.perf_counter()

    def cut(self) -> None:
        """End the current segment and run a probe."""
        self.walls.append(time.perf_counter() - self._start)
        self.kernels.append(self.probe())
        self._start = time.perf_counter()

    def cut_after(self, seconds: float) -> None:
        """Cut only if the open segment is at least ``seconds`` long."""
        if time.perf_counter() - self._start >= seconds:
            self.cut()

    def factors(self) -> list[float]:
        """Per segment: nominal kernel time / local median kernel time."""
        kernels = self.kernels
        count = len(kernels)
        out = []
        for i in range(len(self.walls)):
            window = kernels[max(0, i - 2) : min(count, i + 2)]
            out.append(NOMINAL_KERNEL_S / statistics.median(window))
        return out

    def reference(self, first: int = 0, last: int | None = None) -> float:
        """Sum of segments ``first..last-1`` in reference seconds."""
        factors = self.factors()
        end = len(self.walls) if last is None else last
        return sum(self.walls[i] * factors[i] for i in range(first, end))

    def wall(self, first: int = 0, last: int | None = None) -> float:
        return sum(self.walls[first:last])
