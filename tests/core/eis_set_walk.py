"""Per-iteration walk of the EIS set datapath: the chase's test oracle.

:func:`walk_eis_set_features` replays the Figure 11 ``store_sop`` loop
one fused-bundle iteration at a time, with the datapath state reduced
to a few integers per side.  It was the cost model's feature
extractor before the window chase
(:func:`repro.core.costmodel.eis_set_features`) replaced it; it now
lives here only as the oracle the chase is differentially tested
against.
"""

from repro.core.common import LANES
from repro.core.kernels import DEFAULT_UNROLL


class WalkError(Exception):
    """The walk hit a state it cannot model."""


_SET_WALK_OPS = {"intersection": 0, "union": 1, "difference": 2}


def walk_eis_set_features(which, set_a, set_b, partial_load,
                          unroll=DEFAULT_UNROLL):
    """[1, k, wraps, block_loads, block_stores, flush_lanes, result].

    ``k`` is the number of ``store_sop`` bundles the kernel executes
    (the single data-dependent quantity of the Figure 11 loop), and
    ``wraps`` the resulting back-jump count of the ``unroll``-deep
    loop body.  The trailing features cover the 128-bit loads/stores
    and the sub-block flush tail so configurations with non-zero
    memory wait states stay in-model.

    The walk mirrors :class:`repro.core.datapath.SetDatapath` op for
    op (ST, SOP, ST_S, LDP, LD in the fused-bundle order — identical
    on 1- and 2-LSU cores), but exploits that the comparison window
    and the Load stage always hold *contiguous slices* of the sorted,
    duplicate-free operands: the entire datapath state reduces to a
    handful of integers per side (window start/valid, staged load
    count) plus FIFO/store occupancy, and each SOP step to a few
    comparisons against the threshold ``min(max A lane, max B lane)``
    (:mod:`repro.core.sop` semantics) — no window vectors, no sentinel
    padding.
    """
    op = _SET_WALK_OPS[which]
    len_a = len(set_a)
    len_b = len(set_b)
    aws = bws = 0  # window start: element index into the operand
    av = bv = 0  # valid (unconsumed) window lanes
    la = lb = 0  # elements staged in the Load state
    result_cnt = fifo_cnt = store_cnt = 0
    stored = 0
    block_loads = block_stores = 0
    # kernel prologue: sop_init, ld_a, ld_b, ldp_a, ldp_b
    if len_a:
        la = LANES if len_a >= LANES else len_a
        block_loads += 1
        av, la = la, 0
    if len_b:
        lb = LANES if len_b >= LANES else len_b
        block_loads += 1
        bv, lb = lb, 0
    iterations = 0
    limit = 4 * (len_a + len_b) + 64
    while True:
        # ST: retire a completed 128-bit store block
        if store_cnt == LANES:
            stored += LANES
            store_cnt = 0
            block_stores += 1
        # SOP: stall on FIFO pressure or an empty-but-pending window
        if result_cnt:
            raise WalkError("SOP before ST_S drained results")
        if fifo_cnt <= 3 * LANES \
                and not (av == 0 and aws < len_a) \
                and not (bv == 0 and bws < len_b) \
                and (av or bv):
            if av and bv:
                max_a = set_a[aws + av - 1]
                max_b = set_b[bws + bv - 1]
                if max_a <= max_b:
                    threshold = max_a
                    ca = av
                    cb = 0
                    while cb < bv and set_b[bws + cb] <= threshold:
                        cb += 1
                else:
                    threshold = max_b
                    cb = bv
                    ca = 0
                    while ca < av and set_a[aws + ca] <= threshold:
                        ca += 1
            elif av:  # B exhausted: drain A
                ca, cb = av, 0
            else:  # A exhausted: drain B
                ca, cb = 0, bv
            overlap = 0
            if ca and cb:
                i, j = aws, bws
                end_a, end_b = aws + ca, bws + cb
                while i < end_a and j < end_b:
                    x = set_a[i]
                    y = set_b[j]
                    if x < y:
                        i += 1
                    elif y < x:
                        j += 1
                    else:
                        overlap += 1
                        i += 1
                        j += 1
            if op == 0:
                result_cnt = overlap
            elif op == 2:
                result_cnt = ca - overlap
            else:
                result_cnt = ca + cb - overlap
                if result_cnt > LANES:
                    # Result states are 4 wide: cut consumption back
                    # to the fourth distinct merged value (value-
                    # boundary cut keeps the both-copies invariant).
                    i, j = aws, bws
                    end_a, end_b = aws + ca, bws + cb
                    cut = 0
                    for _ in range(LANES):
                        x = set_a[i] if i < end_a else None
                        y = set_b[j] if j < end_b else None
                        if y is None or (x is not None and x < y):
                            cut = x
                            i += 1
                        elif x is None or y < x:
                            cut = y
                            j += 1
                        else:
                            cut = x
                            i += 1
                            j += 1
                    ca = 0
                    while ca < av and set_a[aws + ca] <= cut:
                        ca += 1
                    cb = 0
                    while cb < bv and set_b[bws + cb] <= cut:
                        cb += 1
                    result_cnt = LANES
            aws += ca
            av -= ca
            bws += cb
            bv -= cb
        iterations += 1
        if not (av or bv or result_cnt or store_cnt
                or fifo_cnt >= LANES
                or aws + av < len_a or bws + bv < len_b):
            break
        if iterations > limit:
            raise WalkError("set walk failed to converge")
        # ST_S: results -> FIFO, FIFO -> store stage when it is free
        if result_cnt:
            fifo_cnt += result_cnt
            result_cnt = 0
        if store_cnt == 0 and fifo_cnt >= LANES:
            fifo_cnt -= LANES
            store_cnt = LANES
        # LDP: refill windows from the Load state (all consumed lanes
        # with partial loading, whole drained windows without)
        want = LANES - av if partial_load \
            else (LANES if av == 0 else 0)
        if want and la:
            take = want if want < la else la
            av += take
            la -= take
        want = LANES - bv if partial_load \
            else (LANES if bv == 0 else 0)
        if want and lb:
            take = want if want < lb else lb
            bv += take
            lb -= take
        # LD: stage the next 128-bit block once the Load state drains
        if not la:
            staged = aws + av
            if staged < len_a:
                remaining = len_a - staged
                la = LANES if remaining >= LANES else remaining
                block_loads += 1
        if not lb:
            staged = bws + bv
            if staged < len_b:
                remaining = len_b - staged
                lb = LANES if remaining >= LANES else remaining
                block_loads += 1
    flush_lanes = store_cnt + fifo_cnt
    total = stored + flush_lanes
    return [1, iterations, (iterations - 1) // unroll,
            block_loads, block_stores, flush_lanes], total
