"""Loop-form reference copies of the EIS datapath functions.

The shipped :mod:`repro.core.sortnet` and :mod:`repro.core.sop` unroll
the comparator networks onto local variables, find the valid lanes
with one C-level ``index`` and count consumed lanes once per step from
the caller's valid counts.  The functions here are the earlier
straightforward forms — the comparator schedules walked in a loop and
the lanes counted one by one — kept only as the oracle the shipped
code is differentially tested against (``test_datapath_oracles.py``).
"""

from repro.core.common import LANES, SENTINEL
from repro.core.sop import SopResult
from repro.core.sortnet import MERGE8_SCHEDULE, SORT4_SCHEDULE


def _cmp_exchange(values, i, j):
    if values[i] > values[j]:
        values[i], values[j] = values[j], values[i]


def sort4(values):
    if len(values) != LANES:
        raise ValueError("sort4 takes exactly %d values" % LANES)
    result = list(values)
    for i, j in SORT4_SCHEDULE:
        _cmp_exchange(result, i, j)
    return result


def merge8(low, high):
    if len(low) != LANES or len(high) != LANES:
        raise ValueError("merge8 takes two 4-vectors")
    result = list(low) + list(high)
    for i, j in MERGE8_SCHEDULE:
        _cmp_exchange(result, i, j)
    return result[:LANES], result[LANES:]


def valid_count(window):
    count = 0
    for value in window:
        if value == SENTINEL:
            break
        count += 1
    return count


def _threshold(window_a, valid_a, window_b, valid_b):
    max_a = window_a[valid_a - 1] if valid_a else SENTINEL
    max_b = window_b[valid_b - 1] if valid_b else SENTINEL
    return max_a if max_a < max_b else max_b


def _consumed_counts(window_a, window_b):
    valid_a = valid_count(window_a)
    valid_b = valid_count(window_b)
    threshold = _threshold(window_a, valid_a, window_b, valid_b)
    consumed_a = sum(1 for i in range(valid_a)
                     if window_a[i] <= threshold)
    consumed_b = sum(1 for i in range(valid_b)
                     if window_b[i] <= threshold)
    return consumed_a, consumed_b


def sop_intersect(window_a, window_b):
    consumed_a, consumed_b = _consumed_counts(window_a, window_b)
    matched_b = set(window_b[:consumed_b])
    output = [value for value in window_a[:consumed_a]
              if value in matched_b]
    return SopResult(consumed_a, consumed_b, output)


def sop_union(window_a, window_b):
    consumed_a, consumed_b = _consumed_counts(window_a, window_b)
    merged = sorted(set(window_a[:consumed_a])
                    | set(window_b[:consumed_b]))
    if len(merged) > LANES:
        threshold = merged[LANES - 1]
        merged = merged[:LANES]
        consumed_a = sum(1 for i in range(consumed_a)
                         if window_a[i] <= threshold)
        consumed_b = sum(1 for i in range(consumed_b)
                         if window_b[i] <= threshold)
    return SopResult(consumed_a, consumed_b, merged)


def sop_difference(window_a, window_b):
    consumed_a, consumed_b = _consumed_counts(window_a, window_b)
    matched_b = set(window_b[:consumed_b])
    output = [value for value in window_a[:consumed_a]
              if value not in matched_b]
    return SopResult(consumed_a, consumed_b, output)


SOP_FUNCTIONS = {
    "intersection": sop_intersect,
    "union": sop_union,
    "difference": sop_difference,
}


def op_ld_lanes(block, ptr, end):
    """Lane masking of ``SetDatapath.op_ld``: (lanes, valid count)."""
    lanes = []
    valid = 0
    for i in range(LANES):
        if ptr + 4 * i < end:
            lanes.append(block[i])
            valid += 1
        else:
            lanes.append(SENTINEL)
    return lanes, valid
