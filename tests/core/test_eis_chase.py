"""Differential property suite: the window chase equals the walk.

:func:`repro.core.costmodel.eis_set_features` predicts the Figure 11
loop's features with a window chase (one step per SOP bundle, closed
forms for the rest).  The per-iteration walk in
:mod:`tests.core.eis_set_walk` replays the datapath one fused-bundle
iteration at a time and is the oracle: features and output count must
match exactly, for every op, both ``partial_load`` modes and every
unroll depth, on list and ndarray operands alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costmodel import eis_set_features
from repro.workloads.sets import generate_set_pair

from .eis_set_walk import walk_eis_set_features

SET_OPS = ("intersection", "union", "difference")
UNROLLS = (1, 2, 4, 8, 16, 32)


def _sorted_set(draw, universe, max_size):
    return sorted(draw(st.sets(st.integers(0, universe - 1),
                               max_size=max_size)))


@st.composite
def operand_pairs(draw):
    """Sorted, duplicate-free operand pairs in the shapes that stress
    the chase's special cases."""
    shape = draw(st.sampled_from((
        "random", "empty", "tiny", "disjoint", "identical",
        "interleaved", "wide_union")))
    if shape == "random":
        universe = draw(st.sampled_from((8, 40, 400)))
        a = _sorted_set(draw, universe, 60)
        b = _sorted_set(draw, universe, 60)
    elif shape == "empty":  # one-sided and both-empty operands
        a = []
        b = _sorted_set(draw, 200, 40)
    elif shape == "tiny":  # <= 4 elements: the prologue stall
        a = _sorted_set(draw, 20, 4)
        b = _sorted_set(draw, 20, draw(st.sampled_from((4, 12))))
    elif shape == "disjoint":
        a = _sorted_set(draw, 100, 30)
        b = [100 + value for value in _sorted_set(draw, 100, 30)]
    elif shape == "identical":
        a = _sorted_set(draw, 120, 50)
        b = list(a)
    elif shape == "interleaved":
        count = draw(st.integers(1, 40))
        stride = draw(st.integers(2, 5))
        a = list(range(0, stride * count, stride))
        b = list(range(1, stride * count, stride))
    else:
        # Every window pair holds more than four distinct values, so
        # union steps cut at the fourth merged value.
        count = draw(st.integers(1, 30))
        offsets_a = draw(st.sets(st.integers(0, 7), min_size=1))
        offsets_b = draw(st.sets(st.integers(0, 7), min_size=1))
        a = [8 * block + offset for block in range(count)
             for offset in sorted(offsets_a)]
        b = [8 * block + offset for block in range(count)
             for offset in sorted(offsets_b)]
    if draw(st.booleans()):
        a, b = b, a
    return a, b


def _assert_chase_equals_walk(which, a, b, partial):
    arrays = (np.asarray(a, dtype=np.int64),
              np.asarray(b, dtype=np.int64))
    for unroll in UNROLLS:
        expected = walk_eis_set_features(which, a, b, partial, unroll)
        for operands in ((a, b), arrays):
            features, total = eis_set_features(which, *operands,
                                               partial, unroll)
            assert (features, total) == expected, (which, partial,
                                                   unroll)


@settings(max_examples=400, deadline=None)
@given(operand_pairs(), st.sampled_from(SET_OPS), st.booleans())
def test_chase_equals_walk(pair, which, partial):
    a, b = pair
    _assert_chase_equals_walk(which, a, b, partial)


def test_chase_equals_walk_on_long_operands():
    """Paper-shaped pairs: long chases, every selectivity regime."""
    for seed, selectivity in enumerate((0.0, 0.1, 0.5, 0.9, 1.0)):
        a, b = generate_set_pair(1200, selectivity=selectivity,
                                 seed=seed)
        for which in SET_OPS:
            for partial in (True, False):
                _assert_chase_equals_walk(which, a, b[:900], partial)
