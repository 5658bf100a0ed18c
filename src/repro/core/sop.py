"""All-to-all comparison logic of the SOP instructions.

The SOP instruction "performs the actual sorted-set operation based on
an all-to-all comparison ... applied on 4 elements of each set" (paper
Table 1).  This module contains the combinational semantics of that
comparator matrix for intersection, union and difference, expressed
over *windows*:

A window is a sorted 4-lane vector; lanes that hold no real element
contain the :data:`~repro.core.common.SENTINEL` (exhausted stream or
consumed-but-not-refilled lane in the non-partial-loading
configuration).  Real elements always occupy a prefix of the lanes.

One SOP step:

1. ``t = min(max(real A lanes), max(real B lanes))`` — the comparison
   threshold.  Every real element ``<= t`` is *consumed* this cycle.
2. The 4x4 comparator matrix classifies consumed elements into the
   operation's result (matches for intersection, the deduplicated
   merge for union, A-only elements for difference).
3. The caller (datapath) shifts consumed lanes out and refills the
   windows — fully with partial loading, only whole drained windows
   without it.

Because elements are consumed only when ``<= t``, both copies of a
common value are always consumed in the same step (see the invariant
discussion in DESIGN.md), which makes all three operations exact.
"""

from .common import LANES, SENTINEL


class SopResult:
    """Outcome of one SOP step."""

    __slots__ = ("consumed_a", "consumed_b", "output")

    def __init__(self, consumed_a, consumed_b, output):
        self.consumed_a = consumed_a
        self.consumed_b = consumed_b
        self.output = output

    @property
    def consumed(self):
        return self.consumed_a + self.consumed_b

    def __repr__(self):
        return "<SopResult -%d/-%d -> %r>" % (
            self.consumed_a, self.consumed_b, self.output)


def valid_count(window):
    """Number of real (non-sentinel) lanes; reals prefix the window."""
    return window.index(SENTINEL) if SENTINEL in window else len(window)


def _threshold(window_a, valid_a, window_b, valid_b):
    max_a = window_a[valid_a - 1] if valid_a else SENTINEL
    max_b = window_b[valid_b - 1] if valid_b else SENTINEL
    return max_a if max_a < max_b else max_b


def _at_most(window, valid, threshold):
    """Lanes among the first *valid* that are ``<= threshold``."""
    count = 0
    for value in window[:valid]:
        if value <= threshold:
            count += 1
    return count


def _consumed_counts(window_a, window_b, valid_a, valid_b):
    """Lanes consumed on each side (elements ``<= t``)."""
    if valid_a is None:
        valid_a = valid_count(window_a)
    if valid_b is None:
        valid_b = valid_count(window_b)
    threshold = _threshold(window_a, valid_a, window_b, valid_b)
    return (_at_most(window_a, valid_a, threshold),
            _at_most(window_b, valid_b, threshold))


def sop_intersect(window_a, window_b, valid_a=None, valid_b=None):
    """Intersection step: emit values present in both consumed prefixes.

    *valid_a*/*valid_b* are the windows' :func:`valid_count`, when the
    caller already has them.
    """
    consumed_a, consumed_b = _consumed_counts(window_a, window_b,
                                              valid_a, valid_b)
    matched_b = set(window_b[:consumed_b])
    output = [value for value in window_a[:consumed_a]
              if value in matched_b]
    return SopResult(consumed_a, consumed_b, output)


def sop_union(window_a, window_b, valid_a=None, valid_b=None):
    """Union step: sorted merge of both consumed prefixes, deduplicated.

    The Result states are four elements wide (paper Figure 9,
    Result_0..3), so a union step emits at most four *distinct* values;
    when the windows would produce more, consumption is cut back to the
    fourth distinct value.  Cutting at a value boundary preserves the
    both-copies-consumed-together invariant.  The union circuit still
    needs the most write-back wiring of all EIS ops (Table 4): it is
    the only one that writes values originating from both input sets.
    """
    consumed_a, consumed_b = _consumed_counts(window_a, window_b,
                                              valid_a, valid_b)
    merged = sorted(set(window_a[:consumed_a])
                    | set(window_b[:consumed_b]))
    if len(merged) > LANES:
        threshold = merged[LANES - 1]
        merged = merged[:LANES]
        consumed_a = _at_most(window_a, consumed_a, threshold)
        consumed_b = _at_most(window_b, consumed_b, threshold)
    return SopResult(consumed_a, consumed_b, merged)


def sop_difference(window_a, window_b, valid_a=None, valid_b=None):
    """Difference step (A minus B): consumed A values not in consumed B."""
    consumed_a, consumed_b = _consumed_counts(window_a, window_b,
                                              valid_a, valid_b)
    matched_b = set(window_b[:consumed_b])
    output = [value for value in window_a[:consumed_a]
              if value not in matched_b]
    return SopResult(consumed_a, consumed_b, output)


SOP_FUNCTIONS = {
    "intersection": sop_intersect,
    "union": sop_union,
    "difference": sop_difference,
}


def comparator_matrix(window_a, window_b):
    """The raw 4x4 all-to-all comparison matrix (for tests/teaching).

    Entry ``[i][j]`` is ``-1/0/+1`` for ``a_i < / == / > b_j`` — the
    signals the three result-selection circuits share ("Op: All" in the
    paper's Table 4 area breakdown).
    """
    matrix = []
    for i in range(LANES):
        row = []
        for j in range(LANES):
            a, b = window_a[i], window_b[j]
            row.append(-1 if a < b else (0 if a == b else 1))
        matrix.append(row)
    return matrix
