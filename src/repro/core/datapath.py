"""The EIS datapath: states and per-instruction behavior.

This module models the hardware of the paper's Figures 8 and 9:

* two Load states (one per set, filled by 128-bit LD instructions),
* two Word states holding the 4-element comparison windows,
* the Result states written by SOP,
* the TmpStore FIFO and Store states feeding the 128-bit ST writes,
* the pointer states programmed by ``INIT_STATES()``.

Two datapath classes exist: :class:`SetDatapath` for the three sorted
set operations and :class:`MergeDatapath` for the merge-sort
instructions (which "do not include partial loading and use only one
load-store unit", paper Table 4 discussion).

Partial loading
---------------
With partial loading enabled, every SOP is followed by an LD_P that
tops the windows back up to four valid elements.  Without it, a window
is refilled only once all four of its elements have been consumed, so
subsequent SOPs compare fewer elements and throughput drops — except at
100 % selectivity where both windows always drain completely, which is
exactly the behavior visible in the paper's Figure 13.
"""

from ..cpu.errors import SimulationError
from .common import LANES, SENTINEL
from .sop import SOP_FUNCTIONS, valid_count
from .sortnet import merge8, sort4
from ..tie.language import State, VectorState

#: TmpStore FIFO capacity in elements.  SOP stalls unless 4 lanes are
#: free (one full Result burst), so the FIFO never overflows by
#: construction.
FIFO_CAPACITY = 16

BLOCK_BYTES = 4 * LANES


class SetDatapath:
    """States + behavior of the sorted-set operation instructions."""

    def __init__(self, num_lsus=2, partial_load=True):
        self.num_lsus = num_lsus
        self.partial_load = partial_load

        # Pointer states, programmed by the kernel via wur
        # (INIT_STATES() in the paper's Figure 11).
        self.ptr_a = State("sop_ptr_a")
        self.end_a = State("sop_end_a")
        self.ptr_b = State("sop_ptr_b")
        self.end_b = State("sop_end_b")
        self.ptr_c = State("sop_ptr_c")
        #:

        # Datapath states (Figure 8/9); not software-visible.
        self.load_a = VectorState("sop_load_a", LANES, [SENTINEL] * LANES)
        self.load_b = VectorState("sop_load_b", LANES, [SENTINEL] * LANES)
        self.load_cnt_a = State("sop_load_cnt_a", 3, read_write=False)
        self.load_cnt_b = State("sop_load_cnt_b", 3, read_write=False)
        self.word_a = VectorState("sop_word_a", LANES, [SENTINEL] * LANES)
        self.word_b = VectorState("sop_word_b", LANES, [SENTINEL] * LANES)
        self.result = VectorState("sop_result", LANES, [SENTINEL] * LANES)
        self.result_cnt = State("sop_result_cnt", 4, read_write=False)
        self.fifo = VectorState("sop_tmpstore", FIFO_CAPACITY,
                                [SENTINEL] * FIFO_CAPACITY)
        self.fifo_cnt = State("sop_fifo_cnt", 5, read_write=False)
        self.store = VectorState("sop_store", LANES, [SENTINEL] * LANES)
        self.store_cnt = State("sop_store_cnt", 3, read_write=False)

        # Result element count, read back by the kernel via rur.
        self.count = State("sop_count")

    # -- wiring ---------------------------------------------------------------

    def states(self):
        return [self.ptr_a, self.end_a, self.ptr_b, self.end_b, self.ptr_c,
                self.load_a, self.load_b, self.load_cnt_a, self.load_cnt_b,
                self.word_a, self.word_b, self.result, self.result_cnt,
                self.fifo, self.fifo_cnt, self.store, self.store_cnt,
                self.count]

    def lsu_for_side(self, side):
        """LSU index serving one set's stream (paper Figure 8)."""
        if side == "a":
            return 0
        return 1 if self.num_lsus == 2 else 0

    # -- helper predicates -----------------------------------------------------

    def _pending(self, side):
        """True while the stream still has data in memory or Load state."""
        if side == "a":
            return self.ptr_a.value < self.end_a.value \
                or self.load_cnt_a.value > 0
        return self.ptr_b.value < self.end_b.value \
            or self.load_cnt_b.value > 0

    # -- instruction semantics --------------------------------------------------

    def op_init(self, core):
        """INIT_STATES: clear the datapath (pointers were set via wur)."""
        for state in (self.load_a, self.load_b, self.word_a, self.word_b,
                      self.result, self.fifo, self.store):
            state.reset()
        for state in (self.load_cnt_a, self.load_cnt_b, self.result_cnt,
                      self.fifo_cnt, self.store_cnt, self.count):
            state.value = 0

    def op_ld(self, core, side):
        """LD: one 128-bit load into the side's Load state (Table 1).

        No-op when the Load state still holds elements or the stream is
        exhausted; lanes beyond the stream end are masked to sentinel.
        """
        ptr_state = self.ptr_a if side == "a" else self.ptr_b
        end = (self.end_a if side == "a" else self.end_b).value
        cnt_state = self.load_cnt_a if side == "a" else self.load_cnt_b
        load_state = self.load_a if side == "a" else self.load_b
        if cnt_state.value > 0 or ptr_state.value >= end:
            return
        ptr = ptr_state.value
        block = core.load_block(self.lsu_for_side(side), ptr, LANES)
        # lane i is real while ptr + 4 * i < end
        valid = (end - ptr + 3) >> 2
        if valid >= LANES:
            load_state.value = block[:LANES]
            cnt_state.value = LANES
        else:
            load_state.value = block[:valid] + [SENTINEL] * (LANES - valid)
            cnt_state.value = valid
        ptr_state.value = ptr + BLOCK_BYTES

    def op_ldp(self, core, side):
        """LD_P: refill the Word window from the Load state (Table 1).

        With partial loading the window is topped up to four valid
        elements after every SOP; without it, only a fully drained
        window is refilled.
        """
        if side == "a":
            word, load_state, cnt_state = \
                self.word_a, self.load_a, self.load_cnt_a
        else:
            word, load_state, cnt_state = \
                self.word_b, self.load_b, self.load_cnt_b
        staged_count = cnt_state.value
        if staged_count == 0:
            return
        window = word.value
        valid = valid_count(window)
        if self.partial_load:
            want = LANES - valid
        else:
            want = LANES if valid == 0 else 0
        if want == 0:
            return
        take = want if want < staged_count else staged_count
        staged = load_state.value
        load_state.value = staged[take:] + [SENTINEL] * take
        cnt_state.value = staged_count - take
        word.value = window[:valid] + staged[:take] \
            + [SENTINEL] * (LANES - valid - take)

    def op_sop(self, core, which):
        """SOP: one all-to-all comparison step (Table 1).

        Stalls (consumes and emits nothing) when the TmpStore FIFO
        cannot absorb a worst-case result burst or when a window is
        empty while its stream still has data (the LD/LD_P pair will
        repair that within the next loop iteration).
        """
        if self.result_cnt.value:
            raise SimulationError(
                "SOP issued before ST_S moved previous results")
        wa = self.word_a.value
        wb = self.word_b.value
        va = valid_count(wa)
        vb = valid_count(wb)
        if FIFO_CAPACITY - self.fifo_cnt.value < LANES:
            return
        if (va == 0 and self._pending("a")) \
                or (vb == 0 and self._pending("b")):
            return
        if va == 0 and vb == 0:
            return
        step = SOP_FUNCTIONS[which](wa, wb, va, vb)
        output = step.output
        if output:
            self.result_cnt.value = len(output)
            self.result.value = output + [SENTINEL] * (LANES - len(output))
        self.word_a.value = wa[step.consumed_a:va] \
            + [SENTINEL] * (LANES - (va - step.consumed_a))
        self.word_b.value = wb[step.consumed_b:vb] \
            + [SENTINEL] * (LANES - (vb - step.consumed_b))

    def op_st_s(self, core):
        """ST_S: shuffle results into the TmpStore FIFO and Store states."""
        count = self.result_cnt.value
        if count:
            fill = self.fifo_cnt.value
            self.fifo.value[fill:fill + count] = self.result.value[:count]
            self.fifo_cnt.value = fill + count
            self.result_cnt.value = 0
            self.result.value = [SENTINEL] * LANES
        if self.store_cnt.value == 0 and self.fifo_cnt.value >= LANES:
            fifo = self.fifo.value
            self.store.value = fifo[:LANES]
            self.fifo.value = fifo[LANES:] + [SENTINEL] * LANES
            self.fifo_cnt.value -= LANES
            self.store_cnt.value = LANES

    def op_st(self, core):
        """ST: one 128-bit result write (delayed below 4 elements)."""
        if self.store_cnt.value != LANES:
            return
        ptr = self.ptr_c.value
        core.store_block(core.lsu_for(ptr).index, ptr, self.store.value)
        self.ptr_c.value = ptr + BLOCK_BYTES
        self.count.value += LANES
        self.store.value = [SENTINEL] * LANES
        self.store_cnt.value = 0

    def op_st_flush(self, core):
        """Drain the tail (<4 elements) with word stores (epilogue)."""
        lanes = []
        if self.store_cnt.value:
            lanes.extend(self.store.value[:self.store_cnt.value])
            self.store.reset()
            self.store_cnt.value = 0
        if self.fifo_cnt.value:
            lanes.extend(self.fifo.value[:self.fifo_cnt.value])
            self.fifo.reset()
            self.fifo_cnt.value = 0
        ptr = self.ptr_c.value
        for value in lanes:
            core.store(ptr, value)
            ptr += 4
        self.ptr_c.value = ptr
        self.count.value += len(lanes)

    def more_work(self):
        """Continue flag returned by the fused STORE_SOP (Figure 11)."""
        if self._pending("a") or self._pending("b"):
            return 1
        if valid_count(self.word_a.value) or valid_count(self.word_b.value):
            return 1
        if self.result_cnt.value:
            return 1
        if self.fifo_cnt.value >= LANES or self.store_cnt.value:
            return 1
        return 0


class MergeDatapath:
    """States + behavior of the merge-sort instructions.

    Implements the hardware form of the SIMD bitonic merge: keep the
    high half of the previous 8-element merge, refill the other window
    with four elements from whichever run's staged head is smaller.
    """

    def __init__(self):
        self.ptr_a = State("mrg_ptr_a")
        self.end_a = State("mrg_end_a")
        self.ptr_b = State("mrg_ptr_b")
        self.end_b = State("mrg_end_b")
        self.ptr_c = State("mrg_ptr_c")

        self.stage_a = VectorState("mrg_stage_a", LANES, [SENTINEL] * LANES)
        self.stage_b = VectorState("mrg_stage_b", LANES, [SENTINEL] * LANES)
        self.stage_a_full = State("mrg_stage_a_full", 1, read_write=False)
        self.stage_b_full = State("mrg_stage_b_full", 1, read_write=False)
        self.keep = VectorState("mrg_keep", LANES, [SENTINEL] * LANES)
        self.next = VectorState("mrg_next", LANES, [SENTINEL] * LANES)
        self.keep_full = State("mrg_keep_full", 1, read_write=False)
        self.next_full = State("mrg_next_full", 1, read_write=False)
        self.result = VectorState("mrg_result", LANES, [SENTINEL] * LANES)
        self.result_full = State("mrg_result_full", 1, read_write=False)
        self.store = VectorState("mrg_store", LANES, [SENTINEL] * LANES)
        self.store_full = State("mrg_store_full", 1, read_write=False)

        self.target = State("mrg_target")
        self.emitted = State("mrg_emitted")

    def states(self):
        return [self.ptr_a, self.end_a, self.ptr_b, self.end_b, self.ptr_c,
                self.stage_a, self.stage_b, self.stage_a_full,
                self.stage_b_full, self.keep, self.next, self.keep_full,
                self.next_full, self.result, self.result_full,
                self.store, self.store_full, self.target, self.emitted]

    # -- instruction semantics --------------------------------------------------

    def op_minit(self, core):
        """MINIT: latch run bounds, clear the merge pipeline."""
        for state in (self.stage_a, self.stage_b, self.keep, self.next,
                      self.result, self.store):
            state.value = [SENTINEL] * LANES
        for state in (self.stage_a_full, self.stage_b_full, self.keep_full,
                      self.next_full, self.result_full, self.store_full,
                      self.emitted):
            state.value = 0
        length_a = self.end_a.value - self.ptr_a.value
        length_b = self.end_b.value - self.ptr_b.value
        self.target.value = (length_a + length_b) // BLOCK_BYTES

    def _refill_stage(self, core, side):
        ptr_state = self.ptr_a if side == "a" else self.ptr_b
        end = (self.end_a if side == "a" else self.end_b).value
        stage = self.stage_a if side == "a" else self.stage_b
        full = self.stage_a_full if side == "a" else self.stage_b_full
        if full.value or ptr_state.value >= end:
            return
        ptr = ptr_state.value
        stage.value = core.load_block(core.lsu_for(ptr).index, ptr, LANES)
        full.value = 1
        ptr_state.value = ptr + BLOCK_BYTES

    def op_mld(self, core):
        """MLD: stage one 128-bit block from a run (Table 1 LD).

        Refills the first *refillable* stage: one that is empty while
        its run still has data in memory.
        """
        if not self.stage_a_full.value \
                and self.ptr_a.value < self.end_a.value:
            self._refill_stage(core, "a")
        elif not self.stage_b_full.value \
                and self.ptr_b.value < self.end_b.value:
            self._refill_stage(core, "b")

    def op_msel(self, core):
        """MSEL: move the staged block with the smaller head into the
        merge window (the LD_P of the merge pipeline)."""
        target = None
        if not self.keep_full.value:
            target, target_full = self.keep, self.keep_full
        elif not self.next_full.value:
            target, target_full = self.next, self.next_full
        else:
            return
        if not self.stage_a_full.value \
                and self.ptr_a.value < self.end_a.value:
            return  # stage A empty but its run still has data: wait
        if not self.stage_b_full.value \
                and self.ptr_b.value < self.end_b.value:
            return
        head_a = self.stage_a.value[0] if self.stage_a_full.value \
            else SENTINEL
        head_b = self.stage_b.value[0] if self.stage_b_full.value \
            else SENTINEL
        if head_a == SENTINEL and head_b == SENTINEL \
                and not (self.stage_a_full.value or self.stage_b_full.value):
            target.value = [SENTINEL] * LANES
            target_full.value = 1
            return
        if head_a <= head_b:
            source, source_full = self.stage_a, self.stage_a_full
        else:
            source, source_full = self.stage_b, self.stage_b_full
        target.value = source.value
        target_full.value = 1
        source.value = [SENTINEL] * LANES
        source_full.value = 0

    def op_merge(self, core):
        """MERGE: 8-element odd-even merge network; emit the low half."""
        if self.result_full.value:
            return  # back-pressure: store path has not drained yet
        if not (self.keep_full.value and self.next_full.value):
            return
        low, high = merge8(self.keep.value, self.next.value)
        self.result.value = low
        self.result_full.value = 1
        self.keep.value = high
        self.next.value = [SENTINEL] * LANES
        self.next_full.value = 0

    def op_mst_s(self, core):
        """ST_S of the merge pipeline: Result -> Store."""
        if self.result_full.value and not self.store_full.value:
            self.store.value = self.result.value
            self.store_full.value = 1
            self.result.value = [SENTINEL] * LANES
            self.result_full.value = 0

    def op_mst(self, core):
        """ST: write one 128-bit output block of the merged stream."""
        if not self.store_full.value:
            return
        if self.emitted.value >= self.target.value:
            return
        ptr = self.ptr_c.value
        core.store_block(core.lsu_for(ptr).index, ptr, self.store.value)
        self.ptr_c.value = ptr + BLOCK_BYTES
        self.emitted.value += 1
        self.store.value = [SENTINEL] * LANES
        self.store_full.value = 0

    def more_work(self):
        return 1 if self.emitted.value < self.target.value else 0

    # -- presort (LDSORT/STSORT: build sorted runs of four) ---------------------

    def op_ldsort(self, core):
        """LDSORT: load four values and sort them in the network."""
        if self.result_full.value:
            return  # previous run not yet stored
        ptr = self.ptr_a.value
        if ptr >= self.end_a.value:
            return
        block = core.load_block(core.lsu_for(ptr).index, ptr, LANES)
        self.result.value = sort4(block)
        self.result_full.value = 1
        self.ptr_a.value = ptr + BLOCK_BYTES

    def op_stsort(self, core):
        """STSORT: store the sorted four-element run."""
        if not self.result_full.value:
            return
        ptr = self.ptr_c.value
        core.store_block(core.lsu_for(ptr).index, ptr, self.result.value)
        self.ptr_c.value = ptr + BLOCK_BYTES
        self.result.value = [SENTINEL] * LANES
        self.result_full.value = 0

    def presort_more(self):
        return 1 if self.ptr_a.value < self.end_a.value \
            or self.result_full.value else 0
