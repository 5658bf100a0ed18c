"""A fixed reference workload that measures how fast the host runs now.

The benchmark's host is a small VM shared with other tenants.  It runs
identical code up to 1.6x slower in phases that last from seconds to
longer than a run, and CPU time tracks wall time through them.  No
median inside a run can cancel a phase that covers the whole run.

So the runner times this reference between steps, about every 0.25 s,
and after every set-up, outside the program's calls, and reports host
times at the nominal host speed: a time *t* measured next to a
reference time *r* is reported as ``t * NOMINAL_S / r``.  The
reference never calls the program, so a change to the program moves
the reported times exactly as it moves the measured ones.

The reference mixes the three kinds of work the program does: an
interpreted loop over ints and a dict (the ISS, the planner, the cost
model's Python), many small NumPy calls (index merges, RID lists), and
one large NumPy sort (table and index build).
"""

import time

import numpy as np

#: The reference's best-of-three time on the baseline host: a 2-vCPU
#: VM, CPython 3, NumPy.  It only scales the reported numbers; the
#: ratio between two runs does not depend on it.
NOMINAL_S = 0.0067
REPEATS = 3

_SMALL = np.arange(0, 4000, 3, dtype=np.uint32)
_LARGE = np.random.RandomState(0).randint(0, 1 << 30, 200_000) \
    .astype(np.uint32)


def _interpreted():
    total = 0
    table = {}
    for value in range(30_000):
        total += value * value % 7
        table[value & 1023] = total
    return total


def _small_numpy():
    total = 0
    for value in range(300):
        found = np.searchsorted(_SMALL, [value, value + 7, value + 100])
        joined = np.concatenate((_SMALL[:50], found.astype(np.uint32)))
        total += int(joined.sum())
    return total


def _large_numpy():
    return np.sort(_LARGE)


def reference_seconds():
    """Seconds the reference takes now: best of three, per part."""
    seconds = 0.0
    for part in (_interpreted, _small_numpy, _large_numpy):
        best = None
        for _ in range(REPEATS):
            began = time.perf_counter()
            part()
            elapsed = time.perf_counter() - began
            best = elapsed if best is None else min(best, elapsed)
        seconds += best
    return seconds
