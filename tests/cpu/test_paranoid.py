"""Paranoid lockstep mode and graceful fast-path degradation.

``REPRO_PARANOID=1`` replays every fast-path run on the reference
interpreter and compares (pc, cycle, regs) at superblock boundaries
(docs/ROBUSTNESS.md).  An *internal* fast-path error instead rolls the
machine back and degrades to the interpreter, reported on the
``cpu.run.fallback`` gauge.
"""

import pytest

from repro.configs.catalog import build_processor
from repro.cpu.errors import DivergenceError
from repro.cpu.processor import _RunGuard

LOOP = """
main:
  movi a2, 0
  movi a3, 40
  movi a5, 0
loop:
  addi a2, a2, 1
  addi a5, a5, 3
  bltu a2, a3, loop
  halt
"""

#: Increments dmem0 words 0..47 in place through l32i/s32i.
BUMP = """
main:
  movi a2, 0
  movi a3, 192
loop:
  l32i a5, a2, 0
  addi a5, a5, 1
  s32i a5, a2, 0
  addi a2, a2, 4
  bltu a2, a3, loop
  halt
"""


def _wrap_block(processor, leader, wrapper):
    """Replace one compiled block, returning an undo callable."""
    fast = processor._fast
    original = fast.blocks[leader]
    fast.blocks[leader] = wrapper(original)

    def undo():
        fast.blocks[leader] = original
    return undo


class TestParanoidPasses:
    def test_clean_run_is_replayed_and_checked(self, monkeypatch):
        processor = build_processor("DBA_1LSU")
        program = processor.load_program(LOOP)
        plain = processor.run(entry="main")
        monkeypatch.setenv("REPRO_PARANOID", "1")
        checked = processor.run(entry="main")
        assert processor.last_paranoid["ok"] is True
        assert processor.last_paranoid["replayed"] is True
        assert processor.last_paranoid["checked"] > 0
        assert checked.cycles == plain.cycles
        assert checked.instructions == plain.instructions
        assert checked.regs == plain.regs
        # the run still reports as a fast-path run, which it was
        assert checked.stats.metric("cpu.run.fastpath") == 1
        assert program.label("main") == 0

    def test_scalar_kernel_under_paranoid(self, monkeypatch):
        from repro.core.scalar_kernels import run_scalar_set_operation
        from repro.workloads.sets import generate_set_pair
        processor = build_processor("DBA_1LSU")
        set_a, set_b = generate_set_pair(150, selectivity=0.5, seed=3)
        out_plain, res_plain = run_scalar_set_operation(
            processor, "intersection", set_a, set_b)
        monkeypatch.setenv("REPRO_PARANOID", "1")
        out_checked, res_checked = run_scalar_set_operation(
            processor, "intersection", set_a, set_b)
        assert processor.last_paranoid["ok"] is True
        assert out_checked == out_plain
        assert res_checked.cycles == res_plain.cycles


    def test_armed_access_hook_run_is_not_replayed(self, monkeypatch):
        """A stateful LSU hook would fire differently in a replay."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, LsuDelay
        plan = FaultPlan([LsuDelay(0, after_accesses=2, extra_cycles=4)])
        processor = build_processor("DBA_1LSU")
        processor.load_program(BUMP)
        processor.write_words(0, [0] * 48)
        with FaultInjector(processor, plan):
            want = processor.run_interpreted(entry="main")
        monkeypatch.setenv("REPRO_PARANOID", "1")
        processor.write_words(0, [0] * 48)
        with FaultInjector(processor, plan):
            checked = processor.run(entry="main")
        assert processor.last_paranoid == {"ok": None, "checked": 0,
                                           "replayed": False}
        assert checked.stats.metric("cpu.run.fastpath") == 1
        assert (checked.cycles, checked.regs) == (want.cycles, want.regs)


class TestParanoidCatchesDivergence:
    def test_corrupted_block_raises_divergence_error(self, monkeypatch):
        processor = build_processor("DBA_1LSU")
        program = processor.load_program(LOOP)
        leader = program.label("loop")

        def corrupting(original):
            def block(core, rv, reg_ready, cycle, issued, taken,
                      interlock, max_cycles):
                out = original(core, rv, reg_ready, cycle, issued,
                               taken, interlock, max_cycles)
                rv[5] ^= 0x10  # silently corrupt a5 (not control flow)
                return out
            return block

        undo = _wrap_block(processor, leader, corrupting)
        try:
            monkeypatch.setenv("REPRO_PARANOID", "1")
            with pytest.raises(DivergenceError):
                processor.run(entry="main")
            assert processor.last_paranoid["ok"] is False
        finally:
            undo()

    def test_unchecked_run_misses_the_same_corruption(self, monkeypatch):
        """The control: without paranoid mode the bug sails through."""
        processor = build_processor("DBA_1LSU")
        program = processor.load_program(LOOP)
        leader = program.label("loop")

        def corrupting(original):
            def block(core, rv, reg_ready, cycle, issued, taken,
                      interlock, max_cycles):
                out = original(core, rv, reg_ready, cycle, issued,
                               taken, interlock, max_cycles)
                rv[5] ^= 0x10
                return out
            return block

        undo = _wrap_block(processor, leader, corrupting)
        try:
            monkeypatch.delenv("REPRO_PARANOID", raising=False)
            result = processor.run(entry="main")
            assert result.reg("a5") != 40 * 3
        finally:
            undo()


class TestGracefulDegradation:
    def test_internal_error_falls_back_bit_identically(self):
        processor = build_processor("DBA_1LSU")
        processor.load_program(LOOP)
        reference = processor.run_interpreted(entry="main")

        def exploding(original):
            state = {"armed": True}

            def block(core, rv, reg_ready, cycle, issued, taken,
                      interlock, max_cycles):
                if state["armed"] and issued > 20:
                    state["armed"] = False
                    raise ValueError("synthetic fast-path bug")
                return original(core, rv, reg_ready, cycle, issued,
                                taken, interlock, max_cycles)
            return block

        undo = _wrap_block(processor, processor._program.label("loop"),
                           exploding)
        try:
            result = processor.run(entry="main")
        finally:
            undo()
        assert result.cycles == reference.cycles
        assert result.instructions == reference.instructions
        assert result.regs == reference.regs
        assert result.stats.metric("cpu.run.fallback") == 1
        assert result.stats.metric("cpu.run.fastpath") == 0

    def test_rollback_undoes_direct_word_stores(self):
        """A fallback after direct ``s32i`` stores replays on pre-run memory.

        The loop increments dmem0 words in place, so a store the
        rollback missed would be applied twice by the replay.
        """
        staged = [100 + i for i in range(48)]
        reference = build_processor("DBA_1LSU")
        reference.load_program(BUMP)
        reference.write_words(0, staged)
        want = reference.run_interpreted(entry="main")

        processor = build_processor("DBA_1LSU")
        processor.load_program(BUMP)
        processor.write_words(0, staged)
        assert "w0[_i] = rv[" in processor._fast.source
        dirty = []

        def exploding(original):
            state = {"armed": True}

            def block(core, rv, reg_ready, cycle, issued, taken,
                      interlock, max_cycles):
                if state["armed"] and issued > 60:
                    state["armed"] = False
                    dirty.append(core.read_words(0, 48) != staged)
                    raise ValueError("synthetic fast-path bug")
                return original(core, rv, reg_ready, cycle, issued,
                                taken, interlock, max_cycles)
            return block

        undo = _wrap_block(processor, processor._program.label("loop"),
                           exploding)
        try:
            result = processor.run(entry="main")
        finally:
            undo()
        assert dirty == [True]
        assert result.stats.metric("cpu.run.fallback") == 1
        assert result.regs == want.regs
        assert processor.read_words(0, 48) == reference.read_words(0, 48)
        assert processor.read_words(0, 48) == [v + 1 for v in staged]

    def test_rollback_undoes_direct_block_stores(self, monkeypatch):
        """The same for EIS ``store_block`` writes of the merge sort.

        The sort ping-pongs between its input and a second buffer and
        its merge passes overwrite the input.  Merging only permutes
        values within runs, so the final image would hide a missed
        rollback; the replay must therefore start from the exact
        pre-run image.
        """
        from repro.core.kernels import run_merge_sort, sort_layout
        values = [(i * 7919) % 1009 for i in range(64)]
        src, dst = sort_layout(build_processor("DBA_2LSU_EIS"), 64)

        def image(processor):
            return (processor.read_words(src, 64),
                    processor.read_words(dst, 64))

        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        reference = build_processor("DBA_2LSU_EIS")
        run_merge_sort(reference, values)
        want_output, want = run_merge_sort(reference, values)
        monkeypatch.delenv("REPRO_NO_FASTPATH")

        processor = build_processor("DBA_2LSU_EIS")
        _output, clean = run_merge_sort(processor, values)
        fast = processor._fast
        dirty = []
        before = []
        replayed_on = []
        state = {"armed": True}
        interpret = processor._run_interpreted

        def replay(*args, **kwargs):
            replayed_on.append(image(processor))
            return interpret(*args, **kwargs)

        monkeypatch.setattr(processor, "_run_interpreted", replay)

        def exploding(original):
            def block(core, rv, reg_ready, cycle, issued, taken,
                      interlock, max_cycles):
                if not before:
                    before.append(image(core))
                if state["armed"] and issued > clean.instructions // 2:
                    state["armed"] = False
                    dirty.append(core.read_words(src, 64) != values)
                    raise ValueError("synthetic fast-path bug")
                return original(core, rv, reg_ready, cycle, issued,
                                taken, interlock, max_cycles)
            return block

        undos = [_wrap_block(processor, leader, exploding)
                 for leader, fn in enumerate(fast.blocks) if fn is not None]
        try:
            output, result = run_merge_sort(processor, values)
        finally:
            for undo in undos:
                undo()
        assert dirty == [True]
        assert replayed_on == before
        assert result.stats.metric("cpu.run.fallback") == 1
        assert output == want_output == sorted(values)
        assert result.cycles == want.cycles
        assert image(processor) == image(reference)

    def test_clean_runs_report_no_fallback(self, dba_1lsu):
        dba_1lsu.load_program(LOOP)
        result = dba_1lsu.run(entry="main")
        assert result.stats.metric("cpu.run.fallback") == 0

    def test_compile_failure_degrades_at_load_time(self, monkeypatch):
        from repro.cpu import fastpath
        processor = build_processor("DBA_1LSU")

        def broken_compile(*args, **kwargs):
            raise RuntimeError("synthetic compiler bug")

        monkeypatch.setattr(fastpath, "compile_fastpath", broken_compile)
        monkeypatch.setattr("repro.cpu.processor.compile_fastpath",
                            broken_compile)
        processor.load_program("main:\n  movi a2, 3\n  halt")
        result = processor.run(entry="main")
        assert result.reg("a2") == 3
        assert result.stats.metric("cpu.run.fallback") == 1
        assert result.stats.metric("cpu.run.fastpath") == 0


class TestRunGuard:
    def test_rollback_restores_registers_and_memory(self):
        processor = build_processor("DBA_1LSU")
        processor.load_program("""
main:
  movi a2, 0
  movi a3, 1234
  s32i a3, a2, 0
  halt
""")
        processor.write_words(0, [7])
        before_reg = list(processor.regs._values)
        # run_interpreted: Processor.run would layer its own fast-path
        # guard over this one, and run guards do not nest
        guard = _RunGuard(processor)
        processor.run_interpreted(entry="main")
        assert processor.read_words(0, 1) == [1234]
        guard.restore()
        assert processor.read_words(0, 1) == [7]
        assert list(processor.regs._values) == before_reg

    def test_discard_keeps_the_run(self):
        processor = build_processor("DBA_1LSU")
        processor.load_program("""
main:
  movi a2, 0
  movi a3, 99
  s32i a3, a2, 0
  halt
""")
        guard = _RunGuard(processor)
        processor.run_interpreted(entry="main")
        guard.discard()
        assert processor.read_words(0, 1) == [99]

    @pytest.mark.parametrize("config", ("DBA_1LSU", "DBA_2LSU_EIS"))
    def test_plain_fast_run_saves_each_page_once(self, monkeypatch,
                                                 config):
        """Guarding costs one copy per written page, not a call per store."""
        from repro.core.scalar_kernels import run_scalar_merge_sort
        from repro.cpu.memory import UNDO_PAGE_SHIFT, Memory
        processor = build_processor(config)
        values = [(i * 7919) % 4093 for i in range(400)]
        run_scalar_merge_sort(processor, values)
        calls = []
        journal = Memory._journal

        def counting(region, index, end=None):
            calls.append((region.name, index >> UNDO_PAGE_SHIFT))
            journal(region, index, end)

        monkeypatch.setattr(Memory, "_journal", counting)
        output, result = run_scalar_merge_sort(processor, values)
        assert output == sorted(values)
        assert result.stats.metric("cpu.run.fastpath") == 1
        stores = sum(result.stats["lsu_stores"])
        assert stores > 1000
        # word stores: one save per written page, however many stores
        # it took (800 words of input and buffer span a few pages)
        assert calls and len(calls) == len(set(calls))
        assert len(calls) <= 4

    def test_rollback_restores_pages_across_boundaries(self):
        """Word, straddling block and bulk writes roll back page-exact."""
        from repro.cpu.memory import UNDO_PAGE_SHIFT, Memory
        page = 1 << UNDO_PAGE_SHIFT
        region = Memory("m", 0, 4 * (3 * page + 10))
        region.write_words(0, list(range(len(region.words))))
        before = list(region.words)
        region.begin_undo()
        region.store(4 * (page - 2), 7, 4)
        region.store(4 * (2 * page - 1), 8, 4)
        # page 1 is saved already: the block's last page needs saving
        region.store_block(4 * (2 * page - 2), [1, 2, 3, 4])
        region.store(4 * (3 * page + 9), 9, 1)
        region.write_words(4 * 5, [0] * (page + 3))
        assert region.words != before
        assert sorted(region._saved) == [0, 1, 2, 3]
        region.rollback_undo()
        assert region.words == before
        assert region._saved is None and not any(region._unsaved)
