"""Hardware sorting and merging networks.

The EIS realizes Chhugani et al.'s SIMD sorting networks directly in
hardware (paper Section 2.3: "we realize the sorting network in
hardware and issue only two instructions to sort four values").  The
functions here are written as explicit compare-exchange sequences so
that each maps one-to-one onto a combinational network whose size and
depth the synthesis model charges for:

* :func:`sort4` — a 5-comparator, 3-stage Batcher network,
* :func:`merge8` — a 9-comparator, 3-stage bitonic (odd-even) merge of
  two sorted 4-vectors.
"""

from .common import LANES


#: Compare-exchange schedule of the 4-input Batcher network.
SORT4_SCHEDULE = ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))

#: Odd-even merge schedule for two sorted 4-vectors (Batcher merge).
MERGE8_SCHEDULE = ((0, 4), (1, 5), (2, 6), (3, 7),
                   (2, 4), (3, 5),
                   (1, 2), (3, 4), (5, 6))

# The two networks below are SORT4_SCHEDULE and MERGE8_SCHEDULE
# unrolled onto local variables, one compare-exchange per line: the
# schedules stay the synthesis model's description, the unrolled form
# is what every simulated instruction runs.


def sort4(values):
    """Sort four values with the 5-comparator Batcher network."""
    if len(values) != LANES:
        raise ValueError("sort4 takes exactly %d values" % LANES)
    v0, v1, v2, v3 = values
    if v0 > v1:
        v0, v1 = v1, v0
    if v2 > v3:
        v2, v3 = v3, v2
    if v0 > v2:
        v0, v2 = v2, v0
    if v1 > v3:
        v1, v3 = v3, v1
    if v1 > v2:
        v1, v2 = v2, v1
    return [v0, v1, v2, v3]


def merge8(low, high):
    """Merge two sorted 4-vectors; returns ``(low4, high4)``.

    Classic odd-even merge: concatenate, run the 9-comparator schedule,
    split.  Both inputs must already be sorted (the EIS maintains this
    invariant: run data is sorted, and the kept high half of a previous
    merge is sorted by construction).
    """
    if len(low) != LANES or len(high) != LANES:
        raise ValueError("merge8 takes two 4-vectors")
    v0, v1, v2, v3 = low
    v4, v5, v6, v7 = high
    if v0 > v4:
        v0, v4 = v4, v0
    if v1 > v5:
        v1, v5 = v5, v1
    if v2 > v6:
        v2, v6 = v6, v2
    if v3 > v7:
        v3, v7 = v7, v3
    if v2 > v4:
        v2, v4 = v4, v2
    if v3 > v5:
        v3, v5 = v5, v3
    if v1 > v2:
        v1, v2 = v2, v1
    if v3 > v4:
        v3, v4 = v4, v3
    if v5 > v6:
        v5, v6 = v6, v5
    return [v0, v1, v2, v3], [v4, v5, v6, v7]


def comparator_count_sort4():
    return len(SORT4_SCHEDULE)


def comparator_count_merge8():
    return len(MERGE8_SCHEDULE)


def network_depth(schedule, width):
    """Stage count of a compare-exchange schedule (critical path)."""
    ready = [0] * width
    for i, j in schedule:
        stage = max(ready[i], ready[j]) + 1
        ready[i] = ready[j] = stage
    return max(ready) if ready else 0
