"""The unrolled datapath functions against their loop-form oracles.

:mod:`tests.core.datapath_reference` keeps the schedule-driven
``merge8``/``sort4`` and the lane-by-lane ``valid_count`` / consumed
counts / SOP steps.  The shipped code must agree with them on every
input, not only on the sorted, sentinel-padded windows the kernels
produce: unsorted lanes, duplicates and ``SENTINEL`` in any lane.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sop, sortnet
from repro.core.common import LANES, SENTINEL
from repro.core.datapath import SetDatapath

from . import datapath_reference as ref

#: Small values collide often (duplicates, ties with the threshold);
#: the sentinel and the 32-bit edge show up in any lane.
lane = st.one_of(st.integers(min_value=0, max_value=12),
                 st.sampled_from((SENTINEL, SENTINEL - 1)),
                 st.integers(min_value=0, max_value=SENTINEL))
window = st.lists(lane, min_size=LANES, max_size=LANES)
#: Sorted, sentinel-padded windows: the shape the datapath builds.
sorted_window = st.lists(st.integers(min_value=0, max_value=40),
                         max_size=LANES).map(
    lambda values: sorted(values) + [SENTINEL] * (LANES - len(values)))
any_window = st.one_of(window, sorted_window)


@given(window)
@settings(max_examples=500)
def test_sort4_matches_schedule(values):
    assert sortnet.sort4(values) == ref.sort4(values)


@given(window, window)
@settings(max_examples=500)
def test_merge8_matches_schedule(low, high):
    assert sortnet.merge8(low, high) == ref.merge8(low, high)
    assert sortnet.merge8(sorted(low), sorted(high)) \
        == ref.merge8(sorted(low), sorted(high))


@given(st.lists(lane, max_size=6))
@settings(max_examples=500)
def test_valid_count_matches_lane_walk(values):
    assert sop.valid_count(values) == ref.valid_count(values)


@given(any_window, any_window)
@settings(max_examples=1000)
def test_consumed_counts_match(window_a, window_b):
    want = ref._consumed_counts(window_a, window_b)
    assert sop._consumed_counts(window_a, window_b, None, None) == want
    assert sop._consumed_counts(window_a, window_b,
                                ref.valid_count(window_a),
                                ref.valid_count(window_b)) == want


@pytest.mark.parametrize("which", sorted(sop.SOP_FUNCTIONS))
@given(window_a=any_window, window_b=any_window)
@settings(max_examples=500)
def test_sop_steps_match(which, window_a, window_b):
    want = ref.SOP_FUNCTIONS[which](window_a, window_b)
    valid = (ref.valid_count(window_a), ref.valid_count(window_b))
    for got in (sop.SOP_FUNCTIONS[which](window_a, window_b),
                sop.SOP_FUNCTIONS[which](window_a, window_b, *valid)):
        assert (got.consumed_a, got.consumed_b, got.output) \
            == (want.consumed_a, want.consumed_b, want.output)


class _BlockCore:
    """Serves recognisable 128-bit blocks: lane i of *addr* is addr + i."""

    def __init__(self):
        self.loads = []

    def load_block(self, lsu_index, addr, nwords):
        self.loads.append((lsu_index, addr, nwords))
        return [addr + i for i in range(nwords)]


@pytest.mark.parametrize("side", ("a", "b"))
@pytest.mark.parametrize("span", range(1, 21))
def test_op_ld_masks_lanes_past_the_stream_end(side, span):
    datapath = SetDatapath(num_lsus=2)
    core = _BlockCore()
    ptr = 0x40
    getattr(datapath, "ptr_" + side).value = ptr
    getattr(datapath, "end_" + side).value = ptr + span
    datapath.op_ld(core, side)
    lanes, valid = ref.op_ld_lanes([ptr + i for i in range(LANES)],
                                   ptr, ptr + span)
    assert getattr(datapath, "load_" + side).value == lanes
    assert getattr(datapath, "load_cnt_" + side).value == valid
    assert getattr(datapath, "ptr_" + side).value == ptr + 4 * LANES
    assert core.loads == [(datapath.lsu_for_side(side), ptr, LANES)]
