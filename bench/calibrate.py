"""A fixed calibration kernel, to take the host's speed out of the timings.

On a host shared with other tenants the speed of a core moves by tens of
percent in phases of seconds to minutes (contention inside the core, not
descheduling: CPU time tracks wall time).  The worker runs bursts of a
fixed kernel (:func:`burst`) for about a tenth of the time between timed
operations, and reports every operation time multiplied by
:func:`host_scale` of the run's bursts: the time the operation would have
taken on a host where one burst takes ``CAL_REF_S``.  The scale is a mean,
not a median, because the host flips between a normal and a faster state
in phases of about a second: an operation integrates the share of time
spent in each, and so does the mean of bursts spread over the run.
Set-up times are scaled the same way, by bursts run in the same process
right after its set-up.

The burst does the kinds of work the program does, in about equal
shares: a bytecode loop, float formatting into text, ``np.unique`` over
rows, small ``eigh`` and matmul, and elementwise ufuncs.  It calls nothing
in revspec and its inputs are fixed, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean burst on the reference host (2-vCPU VM, Intel Xeon,
# Python 3.11.7, numpy 2.4.6, OpenBLAS pinned to one thread)
CAL_REF_S = 0.052
# share of the operation time spent on bursts
CAL_SHARE = 0.10
# a burst this many times slower than the median was interrupted
OUTLIER = 1.5
# bursts after a set-up, which scale that set-up
SETUP_BURSTS = 5

_rng = np.random.default_rng(20130101)
_SYM = _rng.standard_normal((96, 96))
_SYM = _SYM + _SYM.T
_MAT = _rng.standard_normal((128, 128))
_VEC = _rng.standard_normal(85_000)
_ROWS = _rng.standard_normal((3500, 3)).tolist()
_EDGES = _rng.integers(0, 5000, size=(10_000, 2))


def _bytecode() -> None:
    acc, table = 0, {}
    for i in range(60_000):
        acc += (i * i) % 7
        table[i & 255] = acc


def _format() -> None:
    "\n".join("v %.17g %.17g %.17g" % tuple(row) for row in _ROWS)


def _unique() -> None:
    np.unique(np.sort(_EDGES, axis=1), axis=0)


def _linalg() -> None:
    for _ in range(7):
        np.linalg.eigh(_SYM)
        _MAT @ _MAT


def _ufuncs() -> None:
    for _ in range(4):
        np.sqrt(np.abs(_VEC)) * np.cos(_VEC)


PARTS = (_bytecode, _format, _unique, _linalg, _ufuncs)


def burst() -> float:
    """Run the kernel once; its wall time in seconds."""
    start = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - start


def bursts_for(op_s: float) -> list[float]:
    """The bursts to run between two operations: about ``CAL_SHARE`` of
    the time of an operation that took ``op_s``, and at least one."""
    n = max(1, round(CAL_SHARE * op_s / CAL_REF_S))
    return [burst() for _ in range(n)]


def host_scale(bursts: list[float]) -> float:
    """``CAL_REF_S`` over the mean burst: the factor that brings a time
    measured alongside these bursts to reference speed.  Bursts that took
    over ``OUTLIER`` times the median (an interrupt, not a phase) are left
    out."""
    cut = OUTLIER * statistics.median(bursts)
    kept = [b for b in bursts if b <= cut]
    return CAL_REF_S * len(kept) / sum(kept)
