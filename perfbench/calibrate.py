"""Calibration loops: fixed work of the benchmark's own, timed between the ops.

On a shared host one vCPU runs the same code up to twice as fast or as
slow for minutes at a time, as other tenants come and go.  On a 2-vCPU VM
(Intel Xeon at 2.1 GHz) the median op time of a 40 s run moved by that
much from one run to the next, which no statistic within a run removes.

So the benchmark runs one of these loops after every op and reports each
op time divided by the mean loop time of its pass and multiplied by the
loop's nominal time, NOMINAL_S: seconds at the speed at which the loop
takes NOMINAL_S.  The swing cancels as far as the loop slows down with the
package's code, so each workload uses the loop that does the same kind of
work: `python` the tuple and integer steps of the words, search and checks
layers, `numpy` the cumulative-count slicing of the detect kernel.  On
that VM, over ten 40 s runs per workload, wall_s spread between quartiles
by 15% raw and 8% calibrated on scan-free, 9% and 7% on search, and 23%
and 4% on battery.

Neither loop calls the package, so no change to the package moves them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from workloads import order2_counts, reference_prefix

_PREFIX = reference_prefix("g", 20000)
_LETTERS = np.asarray(_PREFIX, dtype=np.int64)

PYTHON_BLOCKS = 1800  # order-2 counts of this many blocks of 150 letters
NUMPY_PERIODS = 2400  # square tests over 20000 letters at periods 1..this


def python_loop() -> int:
    total = 0
    for s in range(PYTHON_BLOCKS):
        total += sum(order2_counts(_PREFIX[s : s + 150], 3))
    return total


def numpy_loop() -> int:
    n = _LETTERS.shape[0]
    cols = [np.concatenate(([0], np.cumsum(_LETTERS == a))) for a in range(3)]
    hits = 0
    for t in range(1, NUMPY_PERIODS + 1):
        smax = n - 2 * t + 1
        for c in cols:
            base = c[t : t + smax] - c[:smax]
            hits += int(np.count_nonzero(c[2 * t : 2 * t + smax] - c[t : t + smax] == base))
    return hits


LOOPS = {"python": python_loop, "numpy": numpy_loop}
# about each loop's time on the VM above; a fixed scale, the ratio to it is what counts
NOMINAL_S = {"python": 0.1, "numpy": 0.17}


def timed(kind: str) -> float:
    """Seconds for one run of the named loop."""
    loop = LOOPS[kind]
    t0 = perf_counter()
    loop()
    return perf_counter() - t0
