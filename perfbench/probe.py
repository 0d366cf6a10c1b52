"""Machine-speed probe: a fixed slice of CPU work, timed next to the ops.

On a host shared with other tenants (measured on a 2-vCPU Intel Xeon VM),
everything runs 1.3 to 2 times slower for seconds and sometimes minutes at
a time (CPU time grows as much as wall time, so it is contention inside the
core, not preemption), and whole runs can fall in either state.  The probe
does the same small mix of float arithmetic, calls and 3-vector numpy work
every time and touches no pentagramma code, so its time follows the
machine's state alone.  Op times are scaled by REFERENCE_S over the probe
times around them, which states each op at the speed the machine has when
undisturbed.

The scaling holds only as far as the ops slow down by the same factor as the
probe.  Every run measures that (tracking() below) and reports it with the
timings as measured.  When the library's computation style changes, for
example from scalar calls to vectorized arrays, check the tracking on both
commits before a judgement rests on scaled figures; if it departs from 1,
the probe's mix must change, and REFERENCE_S be measured again, in a change
of its own.
"""
from __future__ import annotations

import math
import time

import numpy as np

# one probe on an undisturbed core of the machine the benchmark was defined
# on (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 1.7e-3
# wall time between probes; the probe costs about 2 * 1.7 ms
PROBE_EVERY_S = 0.05
# an op's time is scaled by the probes run within this many seconds of it
WINDOW_S = 0.1

_A = np.array([0.3, 0.4, 1.0])
_B = np.array([0.7, -0.2, 1.0])


def _work() -> float:
    acc = 0.0
    for i in range(1, 1500):
        x = i * 1e-3
        acc += math.sin(x) * math.sqrt(x) + math.atan2(x, 1.0 - x)
    for _ in range(60):
        c = np.cross(_A, _B)
        acc += float(np.dot(c, c))
    return acc


def probe() -> float:
    """Seconds for one slice of probe work, the faster of two tries."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


def local_probe(spans, probe_times, probe_values) -> np.ndarray:
    """Mean probe time within WINDOW_S of each (start, end) op span."""
    times = np.asarray(probe_times)
    csum = np.concatenate(([0.0], np.cumsum(probe_values)))
    starts, ends = np.asarray(spans).T
    lo = np.searchsorted(times, starts - WINDOW_S, side="left")
    hi = np.searchsorted(times, ends + WINDOW_S, side="right")
    # a probe runs at least every PROBE_EVERY_S of wall time, so every op
    # has one within the window; the run's mean covers the impossible case
    count = hi - lo
    return np.where(count > 0, (csum[hi] - csum[lo]) / np.maximum(count, 1),
                    csum[-1] / len(times))


def tracking(seconds, local, classes) -> tuple[float, float]:
    """How the ops slow down per unit of probe slowdown, with its standard error.

    The slope of log(op time) on log(local probe time), each taken relative
    to the mean of its class of like ops.  1 means the ops slow down exactly
    as the probe does and the scaled timings carry no bias from the
    machine's state; below 1 the scaling over-corrects slow phases, above 1
    it under-corrects them.  A run spent in one machine state leaves the
    slope loose, which its standard error shows, and noise in the probe
    pulls it towards 0.
    """
    y = np.log(np.asarray(seconds))
    x = np.log(np.asarray(local))
    index: dict = {}
    group = np.array([index.setdefault(c, len(index)) for c in classes])
    sizes = np.bincount(group)
    for v in (x, y):
        v -= (np.bincount(group, weights=v) / sizes)[group]
    sxx = float(np.dot(x, x))
    dof = len(y) - len(sizes) - 1
    if sxx == 0.0 or dof < 1:
        return math.nan, math.inf
    slope = float(np.dot(x, y)) / sxx
    resid = y - slope * x
    return slope, math.sqrt(float(np.dot(resid, resid)) / dof / sxx)
