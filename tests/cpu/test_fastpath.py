"""Differential tests: superblock fast path vs reference interpreter.

The equivalence contract (docs/PERFORMANCE.md): for every run that
reaches ``halt``, the compiled fast path must match the reference
interpreter bit-for-bit and cycle-for-cycle — cycles, instructions,
final registers and the legacy ``RunStats`` keys.  The suite drives
every builtin kernel on every catalog configuration with seeded random
workloads, plus structural and regression tests of the machinery.
"""

import random

import pytest

from repro.configs.catalog import CONFIG_NAMES, build_processor, has_eis
from repro.core.compression import run_decompress
from repro.core.kernels import (clear_portable_cache, portable_cache_stats,
                                run_merge_sort, run_set_operation)
from repro.core.scalar_kernels import (run_scalar_merge_sort,
                                       run_scalar_set_operation)
from repro.cpu.errors import ExecutionLimitExceeded, MemoryFault
from repro.cpu.fastpath import FastProgram, compile_fastpath
from repro.cpu.memory import DMEM1_BASE
from repro.cpu.profiler import CycleProfiler
from repro.cpu.trace import PipelineTracer
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LsuDelay

SET_OPS = ("intersection", "union", "difference")
EIS_CONFIGS = tuple(name for name in CONFIG_NAMES if has_eis(name))


def _seeded_sets(seed, size=300, universe=30_000):
    rng = random.Random(seed)
    return (sorted(rng.sample(range(universe), size)),
            sorted(rng.sample(range(universe), size)))


def _seeded_values(seed, size=256):
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(size)]


@pytest.fixture(scope="module")
def processors():
    built = {}

    def get(name, **kwargs):
        key = (name, tuple(sorted(kwargs.items())))
        if key not in built:
            built[key] = build_processor(name, **kwargs)
        return built[key]

    return get


def assert_differential(monkeypatch, invoke, expect_fast=True):
    """Run *invoke* on both paths and assert identical outcomes."""
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    out_fast, res_fast = invoke()
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    out_ref, res_ref = invoke()
    monkeypatch.delenv("REPRO_NO_FASTPATH")
    if expect_fast:
        assert res_fast.stats.metric("cpu.run.fastpath") == 1
    assert res_ref.stats.metric("cpu.run.fastpath") == 0
    assert out_fast == out_ref
    assert res_fast.cycles == res_ref.cycles
    assert res_fast.instructions == res_ref.instructions
    assert res_fast.regs == res_ref.regs
    assert dict(res_fast.stats) == dict(res_ref.stats)
    return res_fast


# ---------------------------------------------------------------------------
# every builtin kernel x every catalog configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", SET_OPS)
@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_scalar_set_kernels_match(processors, monkeypatch, config, which):
    processor = processors(config)
    set_a, set_b = _seeded_sets(hash((config, which)) & 0xFFFF)
    result = assert_differential(
        monkeypatch,
        lambda: run_scalar_set_operation(processor, which, set_a, set_b))
    assert result.cycles > 0


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_scalar_sort_kernel_matches(processors, monkeypatch, config):
    processor = processors(config)
    values = _seeded_values(len(config))
    out = assert_differential(
        monkeypatch,
        lambda: run_scalar_merge_sort(processor, values))
    assert out.instructions > 0


@pytest.mark.parametrize("which", SET_OPS)
@pytest.mark.parametrize("partial", (True, False))
@pytest.mark.parametrize("config", EIS_CONFIGS)
def test_eis_set_kernels_match(processors, monkeypatch, config, partial,
                               which):
    processor = processors(config, partial_load=partial)
    set_a, set_b = _seeded_sets(hash((config, which, partial)) & 0xFFFF)
    assert_differential(
        monkeypatch,
        lambda: run_set_operation(processor, which, set_a, set_b))


@pytest.mark.parametrize("config", EIS_CONFIGS)
def test_eis_sort_kernel_matches(processors, monkeypatch, config):
    processor = processors(config)
    values = _seeded_values(99, size=512)
    assert_differential(
        monkeypatch, lambda: run_merge_sort(processor, values))


def test_decompress_kernel_matches(monkeypatch):
    processor = build_processor("DBA_2LSU_EIS", compression=True)
    values, _ = _seeded_sets(5, size=200)
    assert_differential(
        monkeypatch, lambda: run_decompress(processor, values))


# ---------------------------------------------------------------------------
# fast-path machinery
# ---------------------------------------------------------------------------

def test_superblocks_cover_leaders(processors):
    processor = processors("DBA_1LSU")
    program = processor.load_program("""
main:
  movi a2, 0
  movi a3, 10
loop:
  addi a2, a2, 1
  bltu a2, a3, loop
  halt
""")
    fast = processor._fast
    assert isinstance(fast, FastProgram)
    # entry and both labels start blocks; the conditional branch keeps
    # its not-taken path inline instead of splitting the region
    assert fast.accepts(program.label("main"))
    assert fast.accepts(program.label("loop"))
    assert fast.block_count == 2
    assert "def _b0(" in fast.source


def test_indirect_jumps_disable_compilation(processors):
    processor = processors("DBA_1LSU")
    processor.load_program("""
main:
  jal sub
  halt
sub:
  ret
""")
    assert processor._fast is None
    result = processor.run(entry="main")
    assert result.stats.metric("cpu.run.fastpath") == 0


def test_escape_hatch_forces_interpreter(processors, monkeypatch):
    processor = processors("DBA_1LSU")
    processor.load_program("main:\n  movi a2, 7\n  halt")
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    result = processor.run(entry="main")
    assert result.stats.metric("cpu.run.fastpath") == 0
    assert result.reg("a2") == 7


def test_run_interpreted_matches_fast_run(processors):
    processor = processors("DBA_1LSU")
    values = _seeded_values(3, size=64)
    out_fast, fast = run_scalar_merge_sort(processor, values)
    out_ref, ref = run_scalar_merge_sort(processor, values)
    # force the reference loop explicitly through the public API
    processor.write_words(0, values)
    interp = processor.run_interpreted(entry="main", regs={
        "a2": 0, "a3": len(values) * 4, "a4": len(values) * 4 + 16})
    assert interp.stats.metric("cpu.run.fastpath") == 0
    assert (interp.cycles, interp.instructions) == (fast.cycles,
                                                    fast.instructions)
    assert out_fast == out_ref


def test_traced_run_keeps_interpreter_and_cycles(processors):
    processor = processors("DBA_1LSU")
    processor.load_program("""
main:
  movi a2, 0
  movi a3, 50
loop:
  addi a2, a2, 1
  bltu a2, a3, loop
  halt
""")
    plain = processor.run(entry="main")
    assert plain.stats.metric("cpu.run.fastpath") == 1
    tracer = PipelineTracer()
    traced = processor.run(entry="main", trace=tracer)
    assert traced.stats.metric("cpu.run.fastpath") == 0
    assert traced.cycles == plain.cycles
    assert traced.instructions == plain.instructions


def test_non_leader_entry_falls_back_to_interpreter(processors):
    processor = processors("DBA_1LSU")
    program = processor.load_program("""
main:
  movi a2, 1
  addi a2, a2, 2
  halt
""")
    assert not processor._fast.accepts(program.label("main") + 1)
    result = processor.run(entry=1, regs={"a2": 1})
    assert result.stats.metric("cpu.run.fastpath") == 0
    assert result.reg("a2") == 3


def test_max_cycles_guard_on_fast_path(processors):
    processor = processors("DBA_1LSU")
    processor.load_program("main:\n  j main")
    with pytest.raises(ExecutionLimitExceeded):
        processor.run(entry="main", max_cycles=1000)


def test_fastpath_requires_standard_register_file(processors):
    processor = processors("DBA_1LSU")
    program = processor.load_program("main:\n  halt")
    steps = processor._steps
    class Narrow:
        _mask = 0xFFFF
    class Shim:
        regs = Narrow()
        lsus = processor.lsus
        _dmem1_base = 1
        _dmem1_limit = 0
    assert compile_fastpath(Shim(), program, steps) is None


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------

def test_run_profiled_bundle_tail_raises_memoryfault(processors):
    """run_profiled used to die with AttributeError on bundle tails."""
    processor = processors("DBA_2LSU_EIS")
    processor.load_program("""
main:
  { ld_a }
  halt
""")
    profiler = CycleProfiler()
    with pytest.raises(MemoryFault, match="bundle tail"):
        processor.run_profiled(profiler, entry=1)


def test_run_bundle_tail_entry_raises_memoryfault(processors):
    processor = processors("DBA_2LSU_EIS")
    processor.load_program("""
main:
  { ld_a }
  halt
""")
    with pytest.raises(MemoryFault, match="bundle tail"):
        processor.run(entry=1)


def test_lsu_for_uses_precomputed_range():
    dual = build_processor("DBA_2LSU_EIS")
    assert dual.lsu_for(DMEM1_BASE) is dual.lsus[1]
    assert dual.lsu_for(DMEM1_BASE - 4) is dual.lsus[0]
    assert dual._dmem1_base == DMEM1_BASE
    single = build_processor("DBA_1LSU")
    # empty sentinel range: one comparison chain, always LSU0
    assert single._dmem1_base > single._dmem1_limit
    assert single.lsu_for(DMEM1_BASE) is single.lsus[0]


def test_portable_cache_shares_compiles_across_processors():
    clear_portable_cache()
    set_a, set_b = _seeded_sets(11, size=120)
    first = build_processor("DBA_2LSU_EIS")
    second = build_processor("DBA_2LSU_EIS")
    out_first, res_first = run_set_operation(first, "intersection",
                                             set_a, set_b)
    out_second, res_second = run_set_operation(second, "intersection",
                                               set_a, set_b)
    stats = portable_cache_stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1
    assert out_first == out_second
    assert res_first.cycles == res_second.cycles
    assert res_first.regs == res_second.regs


def test_program_reload_reuses_compiled_steps(processors):
    processor = processors("DBA_1LSU")
    program = processor.load_program("main:\n  movi a2, 9\n  halt")
    steps = processor._steps
    fast = processor._fast
    processor.load_program(program)
    assert processor._steps is steps
    assert processor._fast is fast


# ---------------------------------------------------------------------------
# direct access to zero-wait local memories
# ---------------------------------------------------------------------------

def _hooked_differential(monkeypatch, processor, plan, run):
    """:func:`assert_differential` with *plan* armed afresh per run.

    The injector's ``fired`` log rides in the compared output; returns
    the fast result and that log.
    """
    logs = []

    def invoke():
        injector = FaultInjector(processor, plan)
        with injector:
            output, result = run()
        logs.append(injector.fired)
        return (output, injector.fired), result

    return assert_differential(monkeypatch, invoke), logs[0]


def test_armed_lsu_hook_scalar_sort_matches(monkeypatch):
    processor = build_processor("DBA_1LSU")
    values = _seeded_values(21, size=200)
    plan = FaultPlan([LsuDelay(0, after_accesses=300, extra_cycles=5,
                               length=40)])
    hooked, fired = _hooked_differential(
        monkeypatch, processor, plan,
        lambda: run_scalar_merge_sort(processor, values))
    assert len(fired) == 1
    clean = run_scalar_merge_sort(processor, values)[1]
    assert hooked.cycles == clean.cycles + 5 * 40


def test_armed_lsu_hook_eis_set_operation_matches(monkeypatch):
    processor = build_processor("DBA_2LSU_EIS")
    set_a, set_b = _seeded_sets(22)
    plan = FaultPlan([LsuDelay(0, after_accesses=10, extra_cycles=3),
                      LsuDelay(1, after_accesses=25, extra_cycles=2,
                               length=12)])
    hooked, fired = _hooked_differential(
        monkeypatch, processor, plan,
        lambda: run_set_operation(processor, "union", set_a, set_b))
    assert len(fired) == 2
    clean = run_set_operation(processor, "union", set_a, set_b)[1]
    assert hooked.cycles > clean.cycles


@pytest.mark.parametrize("config", ("DBA_1LSU", "DBA_2LSU_EIS"))
@pytest.mark.parametrize("access", ("misaligned-load", "store-past-end"))
def test_bad_word_access_faults_on_both_paths(monkeypatch, config, access):
    processor = build_processor(config)
    if access == "misaligned-load":
        source, address = "main:\n  l32i a3, a2, 0\n  halt", 6
    else:
        source, address = "main:\n  s32i a3, a2, 0\n  halt", \
            processor.dmem0.limit
    processor.load_program(source)
    assert processor._fast.accepts(0)
    messages = []
    for disabled in (False, True):
        if disabled:
            monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        with pytest.raises(MemoryFault) as caught:
            processor.run(entry="main", regs={"a2": address, "a3": 7})
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def _lsu_load_block(processor, lsu_index, addr, nwords):
    """The LoadStoreUnit route of a block load, as the oracle."""
    lsu = processor.lsus[lsu_index]
    lsu.require_wide_port(nwords * 32)
    values, cost = lsu.load_block(addr, nwords)
    processor.mem_extra += cost
    return values


def _lsu_store_block(processor, lsu_index, addr, values):
    lsu = processor.lsus[lsu_index]
    lsu.require_wide_port(len(values) * 32)
    processor.mem_extra += lsu.store_block(addr, values)


def _memory_state(processor):
    return ([(lsu.loads, lsu.stores, lsu.stall_cycles)
             for lsu in processor.lsus],
            [(region.name, region.read_accesses, region.write_accesses,
              region._undo, region.words) for region in processor.memory_map],
            processor.mem_extra)


@pytest.mark.parametrize("config", ("DBA_2LSU_EIS", "DBA_1LSU_EIS"))
def test_block_access_matches_load_store_unit(config):
    direct, oracle = build_processor(config), build_processor(config)

    def local(processor):
        return [region for region in (processor.dmem0, processor.dmem1)
                if region is not None]

    accesses = []
    for region in local(direct):
        last = region.limit - 16
        for lsu_index in range(len(direct.lsus)):
            for addr in (region.base, region.base + 48, last):
                accesses.append((lsu_index, addr))
    faults = [(0, 6, 4), (0, direct.dmem0.limit - 8, 4),
              (0, direct.dmem0.limit, 4), (0, 0, 8)]
    for processor in (direct, oracle):
        for region in local(processor):
            processor.write_words(region.base, list(range(1, 65)))
            processor.write_words(region.limit - 64, list(range(101, 117)))
            region.begin_undo()
        processor.mem_extra = 0
    for step, (lsu_index, addr) in enumerate(accesses):
        got = direct.load_block(lsu_index, addr, 4)
        want = _lsu_load_block(oracle, lsu_index, addr, 4)
        assert got == want
        values = [step, -1, 1 << 33, want[0]]
        direct.store_block(lsu_index, addr, values)
        _lsu_store_block(oracle, lsu_index, addr, values)
        assert _memory_state(direct) == _memory_state(oracle)
    assert direct.mem_extra == 0
    for lsu_index, addr, nwords in faults:
        for processor in (direct, oracle):
            with pytest.raises(MemoryFault):
                processor.load_block(lsu_index, addr, nwords)
            with pytest.raises(MemoryFault):
                processor.store_block(lsu_index, addr, [5] * nwords)
        assert _memory_state(direct) == _memory_state(oracle)
    # an armed LSU hook takes the LoadStoreUnit path and its stall
    for processor in (direct, oracle):
        processor.lsus[0].fault_hook = lambda lsu, addr, is_write: 5
    direct.load_block(0, 16, 4)
    _lsu_load_block(oracle, 0, 16, 4)
    assert direct.mem_extra == oracle.mem_extra == 5
    assert _memory_state(direct) == _memory_state(oracle)
