"""Clock and reference-speed calibration for measured times.

The machine this benchmark was built on shares its cores, in two ways.
The host sometimes does not run the guest at all, which stretches wall time
(a fixed loop read 19-36 ms of wall time at a steady 11 ms of CPU time), and
neighbours sometimes slow the core down, which stretches CPU time too (the
same call took 0.53-0.91 s over two minutes).

* Every time is CPU time of the process (`time.process_time_ns`, user plus
  system).  The CLI is single-threaded and never waits, so on an unshared
  machine that is its wall time; it leaves out the host's pauses.
* A fixed pure-Python kernel, timed just before and just after each measured
  call, reads the core's current speed, and the call's time is reported at
  reference speed:

      reported = measured * NOMINAL_KERNEL_NS / median(kernel times around it)

  i.e. the time the call would take where the kernel takes NOMINAL_KERNEL_NS.

The human-readable lines print the uncalibrated figures too; the JSON line
carries the calibrated ones, which is what the bounds in BENCHMARK.json
apply to.
"""

from __future__ import annotations

import gc
import statistics
import time

# kernel time on an idle x86-64 core, CPython 3.11; a constant, so it only
# sets the scale and cancels in any comparison of two runs
NOMINAL_KERNEL_NS = 800_000


def kernel() -> int:
    """Fraction-free Gaussian elimination of a fixed 20x20 integer matrix:
    the same kind of work (bigint arithmetic, nested list indexing) as the
    package's exact linear algebra."""
    n = 20
    a = [[(i * 7 + j * 13) % 11 - 5 + (i == j) * 40 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - aik * rk[j]) // prev
        prev = pivot
    return a[n - 1][n - 1]


def kernel_ns(repeats: int = 2) -> list[int]:
    """Kernel times with the collector paused, so that the size of the
    program's heap cannot leak into the reading."""
    samples = []
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.process_time_ns()
            kernel()
            samples.append(time.process_time_ns() - t0)
    finally:
        gc.enable()
    return samples


def scale(samples: list[int]) -> float:
    """Factor that converts a time measured amid `samples` to reference speed."""
    return NOMINAL_KERNEL_NS / statistics.median(samples)
