"""The cycle-level processor simulator.

A :class:`Processor` is built from a :class:`~repro.cpu.config.CoreConfig`
plus a list of TIE extensions (:mod:`repro.tie`).  It owns the
instruction set, the assembler, the memory system and the load-store
units, and executes assembled programs while charging cycles through
the pipeline model — the Python equivalent of the cycle-accurate
simulator the Tensilica tool flow generates (paper Figure 4).

Execution protocol
------------------
Programs end with ``halt``.  Arguments are passed in address registers
(set via ``run(regs={...})``) and data is staged into the local data
memories with :meth:`Processor.write_words` before the run — the same
role the data prefetcher plays in the full system.
"""

import os

from ..isa.assembler import Assembler, Bundle, BundleTail
from ..isa.instructions import build_base_isa
from ..isa.registers import NUM_ADDRESS_REGISTERS, RegisterFile, \
    parse_register
from ..telemetry.registry import MetricsRegistry
from ..telemetry.report import RunStats
from .cache import Cache
from .errors import ConfigurationError, DivergenceError, MemoryFault, \
    SimulationError
from .fastpath import compile_fastpath, fastpath_disabled
from .lsu import LoadStoreUnit
from .memory import DMEM0_BASE, DMEM1_BASE, M32, MAIN_BASE, \
    UNDO_PAGE_SHIFT, Memory, MemoryMap
from .pipeline import register_uses, result_delay
from .watchdog import DEFAULT_MAX_CYCLES, trip as _watchdog_trip


def paranoid_enabled():
    """Whether ``REPRO_PARANOID=1`` lockstep checking is requested.

    In paranoid mode every run that would use the compiled fast path is
    additionally replayed on the reference interpreter and compared at
    superblock boundaries (docs/ROBUSTNESS.md); a mismatch raises
    :class:`~repro.cpu.errors.DivergenceError`.
    """
    return os.environ.get("REPRO_PARANOID", "") not in ("", "0")


class RunResult:
    """Outcome of one simulated program run."""

    def __init__(self, cycles, instructions, regs, stats):
        self.cycles = cycles
        self.instructions = instructions
        self.regs = regs
        self.stats = stats

    def reg(self, name):
        return self.regs[parse_register(name)]

    def throughput_meps(self, elements, clock_mhz):
        """Throughput in million elements per second at *clock_mhz*.

        Uses the paper's definition (Section 5.2): elements processed
        divided by the time of the run.
        """
        if self.cycles == 0:
            return 0.0
        return elements * clock_mhz / self.cycles

    def cpi(self):
        return self.cycles / self.instructions if self.instructions else 0.0

    def report(self, workload="", config="", elements=None, clock_mhz=None,
               meta=None):
        """Structured :class:`repro.telemetry.report.RunReport`."""
        from ..telemetry.report import RunReport
        return RunReport.from_run(self, workload=workload, config=config,
                                  elements=elements, clock_mhz=clock_mhz,
                                  meta=meta)

    def __repr__(self):
        return "<RunResult %d cycles, %d instructions>" % (
            self.cycles, self.instructions)


class Processor:
    """A configured core instance with its memories and extensions."""

    def __init__(self, config, extensions=()):
        self.config = config
        self.isa = build_base_isa(config.features())
        self.regs = RegisterFile("ar", NUM_ADDRESS_REGISTERS)
        self.pipeline = config.pipeline

        #: Unified telemetry: every component of this core registers
        #: its instruments here (see docs/OBSERVABILITY.md).  Created
        #: before the extension loop so extensions can register too.
        self.metrics = MetricsRegistry()

        self._build_memories(config)
        self._build_lsus(config)
        self._register_metrics()

        # User-register space (TIE states map in here).
        self._ur_read = {}
        self._ur_write = {}
        #: Names of user registers an engine maintains (lint-exempt).
        self.ur_hardware_written = set()
        self.symbols = {}
        self.flix_formats = []
        self.regfiles = {}
        self.extensions = []
        self.extension_states = {}
        for extension in extensions:
            extension.attach(self)
            self.extensions.append(extension)

        self.assembler = Assembler(self.isa, self.flix_formats, self.symbols,
                                   self.regfiles)

        # Execution state (reset per run).
        self.pc = 0
        self.npc = 0
        self.cycle = 0
        self.halted = False
        self.branch_taken = False
        self.mem_extra = 0
        self._program = None
        self._steps = None
        self._fast = None
        self._fast_failed = False
        #: Per-processor compilation memo: id(program) -> (program,
        #: steps, fast).  The strong program reference keeps the id
        #: stable for the lifetime of the entry.
        self._compiled_cache = {}
        #: Active :class:`~repro.cpu.trace.PipelineTracer` of the
        #: current run, visible to extensions (the DMA prefetcher emits
        #: burst spans through it); ``None`` outside traced runs.
        self.trace = None
        #: Fault-injection hook (:mod:`repro.faults`): when armed,
        #: called as ``hook(core, pc, cycle)`` before every issued
        #: instruction, and :meth:`run` routes through the reference
        #: interpreter (the fast path compiles faults away).
        self._fault_hook = None
        #: Outcome of the last paranoid-mode replay, or ``None``; a
        #: plain attribute (not a metric) so registry snapshots stay
        #: identical between checked and unchecked runs.
        self.last_paranoid = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_memories(self, config):
        regions = []
        headroom = config.sim_headroom_kb
        if config.dmem0_kb:
            self.dmem0 = Memory("dmem0", DMEM0_BASE,
                                (config.dmem0_kb + headroom) * 1024)
            regions.append(self.dmem0)
        else:
            # 108Mini style: the low region is system memory with wait
            # states (and optionally a cache in front of it).
            self.dmem0 = Memory("sysmem", DMEM0_BASE,
                                config.sysmem_kb * 1024,
                                wait_states=config.sysmem_wait_states)
            self.dmem0.cacheable = config.dcache is not None
            regions.append(self.dmem0)
        if config.dmem1_kb:
            self.dmem1 = Memory("dmem1", DMEM1_BASE,
                                (config.dmem1_kb + headroom) * 1024)
            regions.append(self.dmem1)
        else:
            self.dmem1 = None
        self.main_memory = Memory("main", MAIN_BASE,
                                  config.main_memory_kb * 1024,
                                  wait_states=8)
        regions.append(self.main_memory)
        self.memory_map = MemoryMap(regions)

    def _build_lsus(self, config):
        dcache = Cache(config.dcache) if config.dcache else None
        self.dcache = dcache
        self.icache = Cache(config.icache) if config.icache else None
        self.lsus = [LoadStoreUnit(0, config.lsu_port_bits, self.memory_map,
                                   dcache)]
        if config.num_lsus == 2:
            self.lsus.append(LoadStoreUnit(1, config.lsu_port_bits,
                                           self.memory_map))
        if self.dmem1 is not None and len(self.lsus) > 1:
            self._dmem1_base = self.dmem1.base
            self._dmem1_limit = self.dmem1.limit
        else:
            # Empty range: the single comparison chain in lsu_for then
            # rejects every address without extra checks.
            self._dmem1_base, self._dmem1_limit = 1, 0
        # Local memories that word and block accesses may index directly
        # (the zero-wait fast access): no dcache in front, no wait
        # states, and dmem1 only when its own LSU serves it.
        local = [self.dmem0]
        if self._dmem1_base < self._dmem1_limit:
            local.append(self.dmem1)
        self._direct_regions = tuple(
            region for region in local
            if dcache is None and region.wait_states == 0)

    def _register_metrics(self):
        """Index every component's instruments in :attr:`metrics`.

        The namespace (``lsu.<i>.*``, ``cpu.dcache.*``, ``mem.<name>.*``,
        ``cpu.run.*`` — plus ``dma.*``/``noc.*`` contributed by an
        attached prefetcher) is documented in docs/OBSERVABILITY.md.
        """
        registry = self.metrics
        for lsu in self.lsus:
            lsu.register_metrics(registry, "lsu.%d" % lsu.index)
        if self.dcache is not None:
            self.dcache.register_metrics(registry, "cpu.dcache")
        if self.icache is not None:
            self.icache.register_metrics(registry, "cpu.icache")
        for region in self.memory_map:
            region.register_metrics(registry, "mem.%s" % region.name)
        run = registry.scope("cpu.run")
        self._g_cycles = run.gauge("cycles")
        self._g_instructions = run.gauge("instructions")
        self._g_taken = run.gauge("taken_redirects")
        self._g_interlock = run.gauge("interlock_stalls")
        #: 1 when the last run used the compiled fast path, else 0.
        self._g_fastpath = run.gauge("fastpath")
        #: 1 when the last run degraded from the fast path to the
        #: interpreter after an internal fast-path error, else 0.
        self._g_fallback = run.gauge("fallback")

    # ------------------------------------------------------------------
    # extension plumbing (called by repro.tie)
    # ------------------------------------------------------------------

    def register_user_register(self, name, reader, writer,
                               hardware_written=False):
        """Expose a TIE state via ``rur``/``wur`` and the assembler.

        ``hardware_written`` marks states maintained by an engine
        rather than the program (e.g. the prefetcher's ``DMA_DONE``
        completion count) so dataflow lint does not flag reads of them
        as use-before-write.
        """
        if name in self.symbols:
            raise ConfigurationError("user register %r already defined"
                                     % name)
        index = len(self._ur_read)
        self._ur_read[index] = reader
        self._ur_write[index] = writer
        self.symbols[name] = index
        if hardware_written:
            self.ur_hardware_written.add(name)
        return index

    def read_user_register(self, index):
        try:
            return self._ur_read[index]()
        except KeyError:
            raise MemoryFault("unknown user register %d" % index) from None

    def write_user_register(self, index, value):
        try:
            self._ur_write[index](value)
        except KeyError:
            raise MemoryFault("unknown user register %d" % index) from None

    # ------------------------------------------------------------------
    # memory interface used by instruction semantics
    # ------------------------------------------------------------------

    def lsu_for(self, addr):
        if self._dmem1_base <= addr < self._dmem1_limit:
            return self.lsus[1]
        return self.lsus[0]

    def load(self, addr, size=4, signed=False):
        value, cost = self.lsu_for(addr).load(addr, size, signed)
        self.mem_extra += cost
        return value

    def store(self, addr, value, size=4):
        self.mem_extra += self.lsu_for(addr).store(addr, value, size)

    def load_block(self, lsu_index, addr, nwords=4):
        """128-bit wide load through a specific LSU (EIS LD path)."""
        lsu = self.lsus[lsu_index]
        region = self._direct_block(lsu, addr, nwords)
        if region is None:
            lsu.require_wide_port(nwords * 32)
            values, cost = lsu.load_block(addr, nwords)
            self.mem_extra += cost
            return values
        lsu.loads += 1
        region.read_accesses += 1
        index = (addr - region.base) >> 2
        return region.words[index:index + nwords]

    def store_block(self, lsu_index, addr, values):
        lsu = self.lsus[lsu_index]
        region = self._direct_block(lsu, addr, len(values))
        if region is None:
            lsu.require_wide_port(len(values) * 32)
            self.mem_extra += lsu.store_block(addr, values)
            return
        lsu.stores += 1
        region.write_accesses += 1
        index = (addr - region.base) >> 2
        end = index + len(values)
        unsaved = region._unsaved
        if unsaved[index >> UNDO_PAGE_SHIFT] \
                or unsaved[(end - 1) >> UNDO_PAGE_SHIFT]:
            region._journal(index, end)
        region.words[index:end] = [v & M32 for v in values]

    def _direct_block(self, lsu, addr, nwords):
        """The local memory a block access may index directly, or None.

        Direct means an aligned access that fits the LSU port and lies
        wholly inside a zero-wait local memory, with neither the LSU's
        nor the region's fault hook armed: the LSU path would charge it
        no stall and raise nothing.  Every other access takes the
        :class:`LoadStoreUnit` path, which faults exactly as before.
        """
        if addr & 3 or nwords * 4 > lsu.port_bytes \
                or lsu.fault_hook is not None:
            return None
        for region in self._direct_regions:
            if region.base <= addr < region.limit:
                if addr + nwords * 4 <= region.limit \
                        and region.fault_hook is None:
                    return region
                return None
        return None

    # ------------------------------------------------------------------
    # host-side data staging
    # ------------------------------------------------------------------

    def write_words(self, addr, values):
        self.memory_map.region_for(addr).write_words(addr, values)

    def read_words(self, addr, count):
        return self.memory_map.region_for(addr).read_words(addr, count)

    # ------------------------------------------------------------------
    # program loading and precompilation
    # ------------------------------------------------------------------

    def load_program(self, source_or_program, source_name="<asm>"):
        if isinstance(source_or_program, str):
            program = self.assembler.assemble(source_or_program, source_name)
        else:
            program = source_or_program
        self._program = program
        cached = self._compiled_cache.get(id(program))
        if cached is not None and cached[0] is program:
            _, self._steps, self._fast, self._fast_failed = cached
            return program
        self._steps = self._compile(program)
        self._fast_failed = False
        if fastpath_disabled():
            self._fast = None
        else:
            try:
                self._fast = compile_fastpath(self, program, self._steps)
            except Exception:
                # Graceful degradation: a fast-path compiler bug must
                # not take the program down — the reference interpreter
                # is always available.  Runs of this program report
                # cpu.run.fallback = 1.
                self._fast = None
                self._fast_failed = True
        if len(self._compiled_cache) >= 64:
            self._compiled_cache.clear()
        self._compiled_cache[id(program)] = (program, self._steps, self._fast,
                                             self._fast_failed)
        return program

    @property
    def program(self):
        return self._program

    def _compile(self, program):
        model = self.pipeline
        steps = [None] * len(program.items)
        for index, item in enumerate(program.items):
            if isinstance(item, BundleTail):
                continue
            if isinstance(item, Bundle):
                steps[index] = self._compile_bundle(item, model)
            else:
                steps[index] = self._compile_item(item, model)
        return steps

    def _compile_item(self, item, model):
        spec = item.spec
        reads, writes = register_uses(spec, item.operands)
        redirect = model.redirect_penalty(spec.kind) if spec.is_control \
            else 0
        extra = model.div_cycles - 1 if spec.kind == "div" \
            else spec.extra_cycles
        return _Step(spec.executor, item.operands, reads, writes,
                     result_delay(model, spec.kind), redirect, extra,
                     item.size, spec.kind == "halt", spec.name)

    def _compile_bundle(self, bundle, model):
        slots = []
        reads = []
        writes = []
        rdelay = 0
        redirect = 0
        extra = 0
        names = []
        for slot in bundle.slots:
            spec = slot.spec
            slot_reads, slot_writes = register_uses(spec, slot.operands)
            reads.extend(slot_reads)
            writes.extend(slot_writes)
            rdelay = max(rdelay, result_delay(model, spec.kind))
            if spec.is_control:
                redirect = model.redirect_penalty(spec.kind)
            if spec.kind == "div":
                extra += model.div_cycles - 1
            else:
                extra += spec.extra_cycles
            slots.append((spec.executor, slot.operands))
            names.append(spec.name)
        executor = _make_bundle_executor(slots)
        return _Step(executor, None, tuple(reads), tuple(writes), rdelay,
                     redirect, extra, bundle.size, False,
                     "{%s}" % ";".join(names))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, entry=0, regs=None, max_cycles=DEFAULT_MAX_CYCLES,
            trace=None, reset_stats=True):
        """Execute the loaded program until ``halt``.

        Parameters
        ----------
        entry: label name or word index to start at.
        regs: mapping of register names/indices to initial values.
        trace: optional :class:`repro.cpu.trace.PipelineTracer`.

        Plain runs (no trace) execute through the superblock-compiled
        fast path of :mod:`repro.cpu.fastpath` when available; set
        ``REPRO_NO_FASTPATH=1`` (or pass a trace, or call
        :meth:`run_interpreted`) to force the reference interpreter.
        Both paths produce identical results — see docs/PERFORMANCE.md.
        With ``REPRO_PARANOID=1`` the equivalence is enforced per run by
        a lockstep interpreter replay (docs/ROBUSTNESS.md); an armed
        fault injector likewise routes through the interpreter.

        Use :meth:`run_profiled` for per-pc cycle attribution.
        """
        entry = self._prepare_run(entry, regs, reset_stats)
        fast = self._fast
        if fast is None and self._fast_failed:
            self._g_fallback.set(1)
        if trace is None and fast is not None and not fastpath_disabled() \
                and self._fault_hook is None and fast.accepts(entry):
            if paranoid_enabled():
                return self._run_paranoid(fast, entry, max_cycles)
            return self._run_fast(fast, entry, max_cycles)
        return self._run_interpreted(entry, max_cycles, trace)

    def run_interpreted(self, entry=0, regs=None, max_cycles=DEFAULT_MAX_CYCLES,
                        trace=None, reset_stats=True):
        """Like :meth:`run` but always using the reference interpreter."""
        entry = self._prepare_run(entry, regs, reset_stats)
        return self._run_interpreted(entry, max_cycles, trace)

    def _prepare_run(self, entry, regs, reset_stats):
        if self._steps is None:
            raise ConfigurationError("no program loaded")
        if isinstance(entry, str):
            entry = self._program.label(entry)
        if reset_stats:
            self.reset_stats()
        if regs:
            for name, value in regs.items():
                index = parse_register(name) if isinstance(name, str) \
                    else name
                self.regs[index] = value
        return entry

    def _run_fast(self, fast, entry, max_cycles):
        """Run the fast path, degrading to the interpreter on internal error.

        A :class:`_RunGuard` guards the run so that an *internal*
        fast-path failure (anything that is not a simulated-machine
        :class:`~repro.cpu.errors.SimulationError`) can roll the
        machine back to the pre-run state and replay on the reference
        interpreter; such runs report ``cpu.run.fallback`` = 1.
        """
        guard = _RunGuard(self)
        try:
            result = self._trampoline(fast, entry, max_cycles)
        except SimulationError:
            # A fault of the simulated machine: both paths raise it
            # identically, nothing to degrade to.
            guard.discard()
            raise
        except Exception:
            guard.restore()
            self._g_fallback.set(1)
            return self._run_interpreted(entry, max_cycles, None)
        guard.discard()
        return result

    def _trampoline(self, fast, entry, max_cycles, record=None):
        """Trampoline over the compiled superblocks of the loaded program.

        *record*, when given, collects (pc, cycle, issued, regs) at
        every superblock boundary for paranoid-mode comparison.
        """
        self._g_fastpath.set(1)
        self.halted = False
        self.trace = None
        rv = self.regs._values
        reg_ready = [0] * NUM_ADDRESS_REGISTERS
        blocks = fast.blocks
        cycle = 0
        issued = 0
        taken = 0
        interlock = 0
        pc = entry
        while not self.halted:
            block = blocks[pc]
            if block is None:
                raise MemoryFault("execution fell into a bundle tail or "
                                  "unmapped instruction at word %d" % pc)
            if record is not None and len(record) < PARANOID_RECORD_LIMIT:
                record.append((pc, cycle, issued, tuple(rv)))
            pc, cycle, issued, taken, interlock = block(
                self, rv, reg_ready, cycle, issued, taken, interlock,
                max_cycles)
        stats = self.collect_stats(taken, interlock, cycle, issued)
        return RunResult(cycle, issued, self.regs.snapshot(), stats)

    def _run_paranoid(self, fast, entry, max_cycles):
        """Fast-path run followed by a lockstep interpreter replay.

        The replay must observe the exact pre-run machine state, so the
        same :class:`_RunGuard` rollback that powers fallback rewinds
        the run before the interpreter repeats it.  Divergence at any
        superblock boundary — or in the final architectural state —
        raises :class:`~repro.cpu.errors.DivergenceError`.  The replay
        (reference) result is returned, with the stats rebuilt to
        report the run as a fast-path run, which it was.

        A run with an armed LSU, memory or DMA fault hook is not
        replayed: the hooks count accesses and the rollback does not
        rewind them, so a replay would meet different faults.
        """
        if self._access_hooks_armed():
            self.last_paranoid = {"ok": None, "checked": 0,
                                  "replayed": False}
            return self._run_fast(fast, entry, max_cycles)
        guard = _RunGuard(self)
        record = []
        try:
            fast_result = self._trampoline(fast, entry, max_cycles, record)
        except SimulationError:
            guard.discard()
            raise
        except Exception:
            guard.restore()
            self._g_fallback.set(1)
            return self._run_interpreted(entry, max_cycles, None)
        guard.restore()
        checker = _LockstepChecker(record)
        try:
            ref_result = self._run_interpreted(entry, max_cycles, None,
                                               probe=checker.probe)
            checker.finish(self, fast_result, ref_result)
        except DivergenceError:
            self.last_paranoid = {"ok": False, "checked": checker.checked,
                                  "replayed": True}
            raise
        self.last_paranoid = {"ok": True, "checked": checker.checked,
                              "replayed": True}
        self._g_fastpath.set(1)
        stats = self.collect_stats(ref_result.stats["taken_redirects"],
                                   ref_result.stats["interlock_stalls"],
                                   ref_result.cycles,
                                   ref_result.instructions)
        return RunResult(ref_result.cycles, ref_result.instructions,
                         ref_result.regs, stats)

    def _access_hooks_armed(self):
        prefetcher = getattr(self, "prefetcher", None)
        return any(unit.fault_hook is not None for unit in
                   (*self.lsus, *self.memory_map)) \
            or (prefetcher is not None and prefetcher.fault_hook is not None)

    def _run_interpreted(self, entry, max_cycles, trace, probe=None):
        self._g_fastpath.set(0)
        steps = self._steps
        reg_ready = [0] * NUM_ADDRESS_REGISTERS
        cycle = 0
        issued = 0
        taken = 0
        interlock = 0
        self.halted = False
        self.trace = trace
        fault = self._fault_hook
        pc = entry

        while not self.halted:
            if fault is not None:
                fault(self, pc, cycle)
            if probe is not None:
                probe(self, pc, cycle, issued)
            step = steps[pc]
            if step is None:
                self.trace = None
                raise MemoryFault("execution fell into a bundle tail or "
                                  "unmapped instruction at word %d" % pc)
            begin = cycle
            issue = cycle
            for reg in step.reads:
                ready = reg_ready[reg]
                if ready > issue:
                    interlock += ready - issue
                    issue = ready
            self.pc = pc
            self.npc = pc + step.size
            self.cycle = issue
            self.branch_taken = False
            self.mem_extra = 0
            step.execute(self, step.operands)
            cycle = issue + 1 + self.mem_extra + step.extra_cycles
            if self.branch_taken or (step.redirect and self.npc != pc
                                     + step.size):
                if step.redirect:
                    cycle += step.redirect
                taken += 1
            if step.rdelay:
                # result usable rdelay cycles after the issue completes
                ready = cycle + step.rdelay
                for reg in step.writes:
                    reg_ready[reg] = ready
            issued += 1
            if trace is not None:
                if issue > begin:
                    trace.stall(begin, pc, issue - begin)
                trace.record(issue, pc, step.name, cycle - issue)
                if self.mem_extra:
                    trace.memory(issue, pc, step.name, self.mem_extra)
            pc = self.npc
            if cycle > max_cycles or issued > max_cycles:
                self.trace = None
                _watchdog_trip(max_cycles, pc, cycle, issued)

        self.trace = None
        stats = self.collect_stats(taken, interlock, cycle, issued)
        return RunResult(cycle, issued, self.regs.snapshot(), stats)

    def run_profiled(self, profiler, entry=0, regs=None,
                     max_cycles=DEFAULT_MAX_CYCLES):
        """Like :meth:`run` but attributing cycles to each pc.

        Kept as a separate loop so the hot path in :meth:`run` stays
        lean; the profiler needs per-item cycle deltas.
        """
        if self._steps is None:
            raise ConfigurationError("no program loaded")
        if isinstance(entry, str):
            entry = self._program.label(entry)
        self.reset_stats()
        if regs:
            for name, value in regs.items():
                index = parse_register(name) if isinstance(name, str) \
                    else name
                self.regs[index] = value
        steps = self._steps
        reg_ready = [0] * NUM_ADDRESS_REGISTERS
        cycle = 0
        issued = 0
        taken = 0
        interlock = 0
        self.halted = False
        pc = entry
        while not self.halted:
            step = steps[pc]
            if step is None:
                raise MemoryFault("execution fell into a bundle tail or "
                                  "unmapped instruction at word %d" % pc)
            begin = cycle
            issue = cycle
            for reg in step.reads:
                ready = reg_ready[reg]
                if ready > issue:
                    interlock += ready - issue
                    issue = ready
            self.pc = pc
            self.npc = pc + step.size
            self.cycle = issue
            self.branch_taken = False
            self.mem_extra = 0
            step.execute(self, step.operands)
            cycle = issue + 1 + self.mem_extra + step.extra_cycles
            if self.branch_taken or (step.redirect and self.npc != pc
                                     + step.size):
                if step.redirect:
                    cycle += step.redirect
                taken += 1
            if step.rdelay:
                # result usable rdelay cycles after the issue completes
                ready = cycle + step.rdelay
                for reg in step.writes:
                    reg_ready[reg] = ready
            issued += 1
            profiler.record(pc, cycle - begin, step)
            pc = self.npc
            if cycle > max_cycles or issued > max_cycles:
                _watchdog_trip(max_cycles, pc, cycle, issued)
        stats = self.collect_stats(taken, interlock, cycle, issued)
        return RunResult(cycle, issued, self.regs.snapshot(), stats)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def reset_stats(self):
        """Zero the per-run statistics.

        Scope matches the pre-registry behavior: LSUs, memory regions,
        caches (tags included) and the run gauges.  DMA/NoC tallies
        accumulate across runs — streaming harnesses reset them
        explicitly via ``prefetcher.reset()``.
        """
        for lsu in self.lsus:
            lsu.reset_stats()
        for region in self.memory_map:
            region.reset_stats()
        if self.dcache:
            self.dcache.reset()
        if self.icache:
            self.icache.reset()
        self.metrics.reset("cpu.run")

    def collect_stats(self, taken_branches, interlock_stalls,
                      cycles=None, instructions=None):
        """Snapshot the registry into a :class:`RunStats` view.

        The flat legacy keys (``lsu_loads`` etc.) are preserved for
        existing consumers; the full hierarchical snapshot rides along
        as ``stats.snapshot``.
        """
        self._g_taken.set(taken_branches)
        self._g_interlock.set(interlock_stalls)
        if cycles is not None:
            self._g_cycles.set(cycles)
        if instructions is not None:
            self._g_instructions.set(instructions)
        legacy = {
            "taken_redirects": taken_branches,
            "interlock_stalls": interlock_stalls,
            "lsu_loads": [lsu.loads for lsu in self.lsus],
            "lsu_stores": [lsu.stores for lsu in self.lsus],
            "lsu_stall_cycles": [lsu.stall_cycles for lsu in self.lsus],
        }
        if self.dcache:
            legacy["dcache_hits"] = self.dcache.hits
            legacy["dcache_misses"] = self.dcache.misses
        return RunStats(legacy, self.metrics.snapshot())


#: Superblock boundaries recorded per paranoid run before recording
#: stops (the final-state comparison still covers the rest).
PARANOID_RECORD_LIMIT = 1 << 20


class _RunGuard:
    """Pre-run snapshot enabling rollback of one simulated run.

    Register files and extension/prefetcher state are tiny and copied
    outright.  A data memory is saved a 4 KB page at a time, at the
    run's first store to each page
    (:meth:`repro.cpu.memory.Memory.begin_undo`): an untouched page
    costs nothing to guard, and a written one costs one copy per run
    instead of a journal entry per store.
    ``restore()`` also calls ``reset_stats`` — the rolled-back run
    never happened, statistically speaking.
    """

    __slots__ = ("core", "regs", "ext")

    def __init__(self, core):
        self.core = core
        self.regs = list(core.regs._values)
        self.ext = [(ext, ext.snapshot_state()) for ext in core.extensions]
        for region in core.memory_map:
            region.begin_undo()

    def restore(self):
        core = self.core
        for region in core.memory_map:
            region.rollback_undo()
        core.regs._values[:] = self.regs
        for ext, snap in self.ext:
            ext.restore_state(snap)
        core.reset_stats()

    def discard(self):
        for region in self.core.memory_map:
            region.discard_undo()


class _LockstepChecker:
    """Compares an interpreter replay against recorded fast-path state.

    The trampoline records (pc, cycle, issued, regs) at every
    superblock boundary; the replay's instruction counter is strictly
    increasing and must agree at those boundaries, so matching on
    ``issued`` pins each record to exactly one interpreter step.
    """

    __slots__ = ("record", "index", "checked")

    def __init__(self, record):
        self.record = record
        self.index = 0
        self.checked = 0

    def probe(self, core, pc, cycle, issued):
        record = self.record
        index = self.index
        if index >= len(record) or issued != record[index][2]:
            return
        epc, ecycle, _eissued, eregs = record[index]
        if pc != epc or cycle != ecycle \
                or tuple(core.regs._values) != eregs:
            raise DivergenceError(
                "paranoid: fast path and interpreter diverge at boundary "
                "%d: fast (pc=%d, cycle=%d) vs interpreted (pc=%d, "
                "cycle=%d)" % (index, epc, ecycle, pc, cycle))
        self.index += 1
        self.checked += 1

    def finish(self, core, fast_result, ref_result):
        if self.index != len(self.record):
            raise DivergenceError(
                "paranoid: interpreter replay visited %d of %d recorded "
                "superblock boundaries" % (self.index, len(self.record)))
        if (fast_result.cycles != ref_result.cycles
                or fast_result.instructions != ref_result.instructions
                or fast_result.regs != ref_result.regs):
            raise DivergenceError(
                "paranoid: final state diverges: fast (cycles=%d, "
                "instructions=%d) vs interpreted (cycles=%d, "
                "instructions=%d)"
                % (fast_result.cycles, fast_result.instructions,
                   ref_result.cycles, ref_result.instructions))
        if dict(fast_result.stats) != dict(ref_result.stats):
            raise DivergenceError(
                "paranoid: run statistics diverge between the fast path "
                "and the interpreter replay")


class _Step:
    """Precompiled execution step: semantics plus timing metadata."""

    __slots__ = ("execute", "operands", "reads", "writes", "rdelay",
                 "redirect", "extra_cycles", "size", "is_halt", "name")

    def __init__(self, execute, operands, reads, writes, rdelay, redirect,
                 extra_cycles, size, is_halt, name):
        self.execute = execute
        self.operands = operands
        self.reads = reads
        self.writes = writes
        self.rdelay = rdelay
        self.redirect = redirect
        self.extra_cycles = extra_cycles
        self.size = size
        self.is_halt = is_halt
        self.name = name


def _make_bundle_executor(slots):
    """Compile bundle slots into a single executor callable.

    Slots execute in order within the issue cycle; the paper's fused
    EIS operations chain their datapath stages the same way.
    """
    def execute(core, _operands):
        for executor, operands in slots:
            executor(core, operands)
    return execute
