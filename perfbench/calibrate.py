"""Host-speed calibration for the timing metrics.

The reference machine is a shared 2-vCPU virtual machine whose speed changes
in phases of tens of seconds: the same `query` operation took 33 ms in one
phase and 51 ms in the next, and its CPU time rose with its wall time.  A
fixed reference kernel slows down in step with the program: over 120 s the
`query` time moved by +-15 % while its ratio to this kernel moved by +-6 %.
Over five 30 s runs, the spread of the median `query` time was 27 % in wall
seconds and 2 % in calibrated seconds.

So the benchmark times this kernel before the first operation and after
every operation, on the same CPU as the program, and reports each operation
in calibrated seconds:

    calibrated = wall * REF_NOMINAL_S / (median of the kernel times nearest it)

The kernel is the benchmark's own code, so a change to the program moves the
calibrated time exactly as much as the wall time.  Raw wall times are kept in
the record next to the calibrated ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's typical time on the reference machine (seconds), so that
#: calibrated seconds are close to wall seconds there
REF_NOMINAL_S = 0.0045

_PERM = np.random.default_rng(0).permutation(29524)


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel: a pure-Python loop and
    repeated numpy fancy indexing over an array the size of the tables."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    x = np.arange(_PERM.size)
    for _ in range(60):
        x = _PERM[x]
    return time.perf_counter() - start


def calibrate(times: list[float], refs: list[float]) -> list[float]:
    """Calibrated seconds for each wall time.  refs[i] was measured just
    before times[i] and refs[i + 1] just after it."""
    if len(refs) != len(times) + 1:
        raise ValueError("need one kernel time before and after every operation")
    return [t * REF_NOMINAL_S / statistics.median(refs[max(0, i - 1):i + 3])
            for i, t in enumerate(times)]
