"""Superblock-compiled fast path for the cycle-level simulator.

The reference interpreter in :meth:`repro.cpu.processor.Processor.run`
pays per-instruction dispatch, attribute lookups and scoreboard
bookkeeping for every simulated step.  This module removes that
overhead for plain (untraced, unprofiled) runs: at ``load_program()``
time the :class:`~repro.cpu.processor._Step` array is partitioned into
straight-line regions — superblocks ending at control instructions and
at branch targets, discovered with the same decode-time transfer model
as :mod:`repro.analysis.cfg` — and one specialized Python function is
``exec``-generated per region.  Each function inlines the
issue/interlock/``mem_extra``/``rdelay`` timing math of the reference
loop with the register scoreboard held in local variables, so a block
of N instructions costs one Python call instead of N trips through the
generic dispatch loop.

FLIX bundles and TIE operations compile inline too when their shape
allows (:func:`_slot_plan`): TIE operations with no ``in`` operands and
at most one ``ar`` output call their semantics directly, ``rur``/``wur``
of a known user register call the state's reader or writer, ALU slots
and a final conditional branch slot inline as standalone.  Such a step
still sets ``core.cycle`` (engines behind user registers read it) and
clears and reads back ``core.mem_extra`` (block accesses off the direct
path add their stall there).  Any other bundle or TIE step calls its
original executor with the full core-attribute protocol.

Equivalence contract
--------------------
For every run that completes (reaches ``halt``), the fast path produces
bit- and cycle-identical results to the reference interpreter: the same
``cycles``, ``instructions``, final register file, taken-redirect and
interlock-stall counts, and LSU/memory/cache statistics.

``l32i``/``s32i`` to a zero-wait local data memory index the region's
``words`` directly when the address is aligned and inside ``dmem0`` (or
``dmem1`` on a dual-LSU configuration), the configuration has no dcache,
the region no wait states, and neither the LSU's nor the region's
``fault_hook`` is armed.  Such an access bumps the same LSU and region
counters, costs no stall, and a store still arms the region's run
rollback.  Every other access calls the
:class:`~repro.cpu.lsu.LoadStoreUnit`, which owns every fault.

Runs that fault (``MemoryFault``) or exceed ``max_cycles`` raise the
same exception types, but the cycle limit is only checked at block
boundaries and the processor's scratch attributes (``pc``/``cycle``/...)
may hold stale values at the point of the raise; the reference
interpreter is authoritative for failing runs.

Programs containing register-indirect jumps (``jalr``/``ret``) have
statically unknown transfer targets and are not compiled — they always
use the reference interpreter, as do traced and profiled runs and any
run started with ``REPRO_NO_FASTPATH=1`` in the environment.
"""

import os

from ..isa.assembler import Bundle, BundleTail
from .memory import UNDO_PAGE_SHIFT
from .watchdog import trip as _watchdog_trip

M32 = 0xFFFFFFFF

#: Base-ISA operations whose semantics the code generator inlines,
#: standalone or in a FLIX bundle slot.  TIE operations, bundles and
#: ``rur``/``wur`` are inlined by :func:`_slot_plan` when their shape
#: allows; everything else (divides, jumps inside a bundle, TIE
#: operations with ``in`` or register-file operands) goes through the
#: original executor with the full core-attribute protocol.
_ALU_OPS = frozenset((
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
    "min", "max", "minu", "maxu", "mul", "mulh",
    "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "sltui",
    "movi", "movhi", "nop",
))
_LOAD_OPS = {"l32i": (4, False), "l16ui": (2, False),
             "l16si": (2, True), "l8ui": (1, False)}
_STORE_OPS = {"s32i": (4, ""), "s16i": (2, " & 65535"), "s8i": (1, " & 255")}
#: Word accesses that may index a zero-wait local memory directly.
_DIRECT_OPS = frozenset(("l32i", "s32i"))
_BRANCH_CONDS = {
    "beq": ("==", False), "bne": ("!=", False),
    "bltu": ("<", False), "bgeu": (">=", False),
    "blt": ("<", True), "bge": (">=", True),
}


def fastpath_disabled():
    """True when ``REPRO_NO_FASTPATH`` requests the reference loop."""
    return os.environ.get("REPRO_NO_FASTPATH", "") not in ("", "0")


class FastProgram:
    """Compiled superblocks of one program on one processor.

    ``blocks[word_index]`` holds the generated entry function for each
    block leader (``None`` elsewhere); ``source`` keeps the generated
    Python text for inspection and debugging.
    """

    __slots__ = ("blocks", "source")

    def __init__(self, blocks, source):
        self.blocks = blocks
        self.source = source

    def accepts(self, entry):
        """Whether *entry* is a block leader the trampoline can start at."""
        return 0 <= entry < len(self.blocks) \
            and self.blocks[entry] is not None

    @property
    def block_count(self):
        return sum(1 for fn in self.blocks if fn is not None)


def compile_fastpath(processor, program, steps):
    """Compile *program* into a :class:`FastProgram`, or ``None``.

    Returns ``None`` when the program is ineligible (indirect jumps,
    non-standard register file) — the caller then keeps the reference
    interpreter.
    """
    from ..analysis.cfg import item_transfers

    items = program.items
    n = len(items)
    if n == 0:
        return None
    if getattr(processor.regs, "_mask", None) != M32:
        return None

    transfers_at = {}
    enders = set()
    for index, item in enumerate(items):
        if isinstance(item, BundleTail):
            continue
        transfers = item_transfers(item)
        if any(t.kind == "indirect" for t in transfers):
            return None  # jalr/ret: targets unknown before run time
        if transfers:
            transfers_at[index] = transfers
            # Conditional branches keep executing inline on the
            # not-taken path (superblock side exit); only unconditional
            # transfers force a region boundary.
            if any(t.kind in ("jump", "call", "halt") for t in transfers):
                enders.add(index)

    leaders = {0}
    for target in program.labels.values():
        if 0 <= target < n:
            leaders.add(target)
    for transfers in transfers_at.values():
        for transfer in transfers:
            target = transfer.target
            if target is not None and 0 <= target < n:
                leaders.add(target)

    plans = []
    current = None
    for index in range(n):
        if steps[index] is None:
            continue
        if current is None or index in leaders:
            current = [index]
            plans.append(current)
        else:
            current.append(index)
        if index in enders:
            current = None

    dual = processor._dmem1_base < processor._dmem1_limit
    lsus = processor.lsus
    # (LSU, local memory, direct?) per routing target: dmem1 on its
    # own LSU when dual, everything else on LSU0.
    routes = [(lsus[0], processor.dmem0)]
    if dual:
        routes.append((lsus[1], processor.dmem1))
    routes = [(lsu, region, region in processor._direct_regions)
              for lsu, region in routes]
    bindings = {}
    slot_plans = {}
    for index, item in enumerate(items):
        if steps[index] is not None:
            slot_plans[index] = _slot_plan(item, processor, bindings)
    lines = []
    for block in plans:
        lines.extend(_gen_block(block, items, steps, enders, routes,
                                slot_plans))
        lines.append("")
    source = "\n".join(lines)
    namespace = {
        "EX": [s.execute if s is not None else None for s in steps],
        "OPS": [s.operands if s is not None else None for s in steps],
        "WD": _watchdog_trip,
    }
    namespace.update((name, obj) for obj, name in bindings.values())
    for number, (lsu, region, direct) in enumerate(routes):
        namespace["LSU%d" % number] = lsu
        if direct:
            namespace["D%d" % number] = region
            namespace["W%d" % number] = region.words
    code = compile(source, "<fastpath:%s>" % program.source_name, "exec")
    exec(code, namespace)
    blocks = [None] * n
    for block in plans:
        blocks[block[0]] = namespace["_b%d" % block[0]]
    return FastProgram(blocks, source)


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------

def _bind(bindings, obj, prefix):
    """Global name under which generated code reaches *obj*."""
    entry = bindings.get(id(obj))
    if entry is None:
        entry = bindings[id(obj)] = (obj, "%s%d" % (prefix, len(bindings)))
    return entry[1]


def _slot_plan(item, processor, bindings):
    """Inline plan of a bundle, TIE operation or ``rur``/``wur``, or None.

    A plan is a list of ``(kind, slot, names)`` in slot order.
    ``kind`` is ``"tie"`` (a TIE operation with no ``in`` operands and
    at most one ``ar`` output; *names* are the global names of its
    semantics and extension), ``"rur"``/``"wur"`` (a known user
    register; *names* holds the name of its reader or writer),
    ``"alu"``, or ``"branch"`` (a conditional branch, only as the last
    slot).  *bindings* collects the named objects.  Base-ISA items other
    than ``rur``/``wur`` return None here: :func:`_inline_category`
    handles them.  None also means "keep the generic executor".
    """
    slots = item.slots if isinstance(item, Bundle) else (item,)
    plan = []
    for position, slot in enumerate(slots):
        spec = slot.spec
        name = spec.name
        if spec.extension is not None:
            extension = processor.extension_states.get(spec.extension)
            if extension is None:
                return None
            operation = extension.operation(name)
            outs = [op for op in operation.operands
                    if op.direction == "out" and op.kind == "ar"]
            if len(outs) != len(operation.operands) or len(outs) > 1:
                return None
            plan.append(("tie", slot, (
                _bind(bindings, operation.semantics, "SEM"),
                _bind(bindings, extension, "EXT"))))
        elif name in ("rur", "wur"):
            table = processor._ur_read if name == "rur" \
                else processor._ur_write
            access = table.get(slot.operands[1])
            if access is None:
                return None  # unknown index: the executor faults
            plan.append((name, slot, (_bind(bindings, access, "UR"),)))
        elif not isinstance(item, Bundle):
            return None
        elif name in _ALU_OPS and not spec.extra_cycles:
            plan.append(("alu", slot, ()))
        elif (name in _BRANCH_CONDS or name in ("beqz", "bnez")) \
                and position == len(slots) - 1:
            plan.append(("branch", slot, ()))
        else:
            return None
    return plan


def _inline_category(item, plan):
    """How to compile one step: an inline category or ``None`` (fallback)."""
    if plan is not None:
        return "slots"
    if isinstance(item, Bundle):
        return None
    spec = item.spec
    if spec.extension is not None or spec.extra_cycles:
        return None
    name = spec.name
    if name in _ALU_OPS:
        return "alu"
    if name in _LOAD_OPS:
        return "load"
    if name in _STORE_OPS:
        return "store"
    if name in _BRANCH_CONDS or name in ("beqz", "bnez"):
        return "branch"
    if name in ("j", "jal"):
        return "jump"
    if name == "halt":
        return "halt"
    return None


def _gen_block(indexes, items, steps, enders, routes, slot_plans):
    leader = indexes[0]
    fallbacks = []
    categories = {}
    uses_mem = False
    uses_direct = False
    bound = {}  # ordered set of the bound names the block uses
    for index in indexes:
        category = _inline_category(items[index], slot_plans[index])
        categories[index] = category
        if category is None:
            fallbacks.append(index)
        elif category in ("load", "store"):
            uses_mem = True
            if items[index].spec.name in _DIRECT_OPS:
                uses_direct = True
        elif category == "slots":
            for _kind, _slot, names in slot_plans[index]:
                bound.update(dict.fromkeys(names))

    params = ["core", "rv", "reg_ready", "cycle", "issued", "taken",
              "interlock", "max_cycles", "WD=WD"]
    if uses_mem:
        for number, (_lsu, _region, direct) in enumerate(routes):
            params.append("lsu%d=LSU%d" % (number, number))
            if direct and uses_direct:
                params.append("d%d=D%d" % (number, number))
                params.append("w%d=W%d" % (number, number))
    for index in fallbacks:
        params.append("ex%d=EX[%d]" % (index, index))
        params.append("ops%d=OPS[%d]" % (index, index))
    params.extend("%s=%s" % (name, name) for name in bound)

    out = ["def _b%d(%s):" % (leader, ", ".join(params))]

    def w(line, indent=1):
        out.append("    " * indent + line)

    def block_exit(indent, pc_expr, count):
        w("issued += %d" % count, indent)
        # unified watchdog: cycle fuel + no-progress backstop, checked
        # at superblock granularity (docs/ROBUSTNESS.md)
        w("if cycle > max_cycles or issued > max_cycles:", indent)
        w("    WD(max_cycles, %s, cycle, issued)" % pc_expr, indent)
        w("return %s, cycle, issued, taken, interlock" % pc_expr, indent)

    def issue_seq(step, indent):
        w("issue = cycle", indent)
        reads = tuple(dict.fromkeys(step.reads))
        for reg in reads:
            w("if reg_ready[%d] > issue:" % reg, indent)
            w("    issue = reg_ready[%d]" % reg, indent)
        if reads:
            # the per-read accumulation of the reference loop telescopes
            # to the total issue slip
            w("if issue > cycle:", indent)
            w("    interlock += issue - cycle", indent)

    def signed_temp(var, reg, indent):
        w("%s = rv[%d]" % (var, reg), indent)
        w("if %s >= 2147483648:" % var, indent)
        w("    %s -= 4294967296" % var, indent)

    def rdelay_updates(step, indent):
        if step.rdelay:
            for reg in step.writes:
                w("reg_ready[%d] = cycle + %d" % (reg, step.rdelay), indent)

    def lsu_access(item, number, indent):
        """The unchanged LoadStoreUnit call; it owns every fault."""
        rd = item.operands[0]
        name = item.spec.name
        if name in _LOAD_OPS:
            size, signed = _LOAD_OPS[name]
            w("_v, _c = lsu%d.load(_a, %d, %s)" % (number, size, signed),
              indent)
            w("rv[%d] = _v%s" % (rd, " & 4294967295" if signed else ""),
              indent)
        else:
            size, mask = _STORE_OPS[name]
            w("_c = lsu%d.store(_a, rv[%d]%s, %d)"
              % (number, rd, mask, size), indent)
        w("cycle = issue + 1 + _c", indent)

    def direct_access(item, number, region, indent):
        """Index a zero-wait local memory's words, as the LSU would."""
        rd = item.operands[0]
        index = "_a >> 2" if region.base == 0 \
            else "(_a - %d) >> 2" % region.base
        if item.spec.name == "l32i":
            w("rv[%d] = w%d[%s]" % (rd, number, index), indent)
            w("lsu%d.loads += 1" % number, indent)
            w("d%d.read_accesses += 1" % number, indent)
        else:
            w("_i = %s" % index, indent)
            w("if d%d._unsaved[_i >> %d]:" % (number, UNDO_PAGE_SHIFT),
              indent)
            w("    d%d._journal(_i)" % number, indent)
            w("w%d[_i] = rv[%d]" % (number, rd), indent)
            w("lsu%d.stores += 1" % number, indent)
            w("d%d.write_accesses += 1" % number, indent)
        w("cycle = issue + 1", indent)

    def route_access(item, number, indent, in_range):
        _lsu, region, direct = routes[number]
        if not (direct and item.spec.name in _DIRECT_OPS):
            lsu_access(item, number, indent)
            return
        guard = ["not _a & 3"]
        if not in_range:
            if region.base == 0 and item.operands[2] >= 0:
                guard.append("_a < %d" % region.limit)
            else:
                guard.append("%d <= _a < %d" % (region.base, region.limit))
        guard.append("lsu%d.fault_hook is None" % number)
        guard.append("d%d.fault_hook is None" % number)
        w("if %s:" % " and ".join(guard), indent)
        direct_access(item, number, region, indent + 1)
        w("else:", indent)
        lsu_access(item, number, indent + 1)

    def memory_access(item):
        _rd, rs, imm = item.operands
        if imm:
            w("_a = rv[%d] + %d" % (rs, imm))
        else:
            w("_a = rv[%d]" % rs)
        if len(routes) == 1:
            route_access(item, 0, 1, False)
            return
        dmem1 = routes[1][1]
        w("if %d <= _a < %d:" % (dmem1.base, dmem1.limit))
        route_access(item, 1, 2, True)
        w("else:")
        route_access(item, 0, 2, False)

    def emit_slots(step, plan, count):
        """A bundle or a TIE/user-register step, slot by slot.

        ``core.cycle`` is set because engines behind user registers
        (the DMA prefetcher) read it, and ``core.mem_extra`` because
        block accesses off the direct path add their stalls to it.
        """
        touches_core = any(kind in ("tie", "rur", "wur")
                           for kind, _slot, _names in plan)
        if touches_core:
            w("core.cycle = issue")
            w("core.mem_extra = 0")
        branch = None
        for kind, slot, names in plan:
            if kind == "tie":
                call = "%s(%s, core)" % names
                if slot.operands:
                    w("rv[%d] = %s & 4294967295" % (slot.operands[0], call))
                else:
                    w(call)
            elif kind == "rur":
                w("rv[%d] = %s() & 4294967295"
                  % (slot.operands[0], names[0]))
            elif kind == "wur":
                w("%s(rv[%d])" % (names[0], slot.operands[0]))
            elif kind == "alu":
                _emit_alu(w, slot, signed_temp)
            else:
                branch = slot
        extra = " + core.mem_extra" if touches_core else ""
        w("cycle = issue + %d%s" % (1 + step.extra_cycles, extra))
        if branch is not None:
            w("if %s:" % _branch_condition(w, branch, signed_temp))
            if step.redirect:
                w("    cycle += %d" % step.redirect)
            w("    taken += 1")
            rdelay_updates(step, 2)
            block_exit(2, "%d" % branch.operands[-1], count)
        rdelay_updates(step, 1)

    count = 0
    for index in indexes:
        step = steps[index]
        item = items[index]
        category = categories[index]
        fall = index + step.size
        count += 1
        w("# %d: %s" % (index, step.name))
        issue_seq(step, 1)

        if category == "alu":
            _emit_alu(w, item, signed_temp)
            w("cycle = issue + 1")
            rdelay_updates(step, 1)
        elif category in ("load", "store"):
            memory_access(item)
            rdelay_updates(step, 1)
        elif category == "branch":
            cond = _branch_condition(w, item, signed_temp)
            target = item.operands[-1]
            w("if %s:" % cond)
            if step.redirect:
                w("    cycle = issue + %d" % (1 + step.redirect))
            else:
                w("    cycle = issue + 1")
            w("    taken += 1")
            block_exit(2, "%d" % target, count)
            w("cycle = issue + 1")
        elif category == "jump":
            target = item.operands[0]
            if item.spec.name == "jal":
                w("rv[0] = %d" % (index + 1))
            penalized = step.redirect and target != fall
            if penalized:
                w("cycle = issue + %d" % (1 + step.redirect))
                w("taken += 1")
            else:
                w("cycle = issue + 1")
            block_exit(1, "%d" % target, count)
        elif category == "slots":
            emit_slots(step, slot_plans[index], count)
        elif category == "halt":
            w("core.pc = %d" % index)
            w("core.npc = %d" % fall)
            w("core.cycle = issue")
            w("core.branch_taken = False")
            w("core.mem_extra = 0")
            w("core.halted = True")
            w("cycle = issue + 1")
            block_exit(1, "%d" % fall, count)
        else:  # fallback: full core-attribute protocol around the executor
            w("core.pc = %d" % index)
            w("core.npc = %d" % fall)
            w("core.cycle = issue")
            w("core.branch_taken = False")
            w("core.mem_extra = 0")
            w("ex%d(core, ops%d)" % (index, index))
            if step.extra_cycles:
                w("cycle = issue + %d + core.mem_extra"
                  % (1 + step.extra_cycles))
            else:
                w("cycle = issue + 1 + core.mem_extra")
            if step.redirect:
                w("if core.branch_taken or core.npc != %d:" % fall)
                w("    cycle += %d" % step.redirect)
                w("    taken += 1")
            else:
                w("if core.branch_taken:")
                w("    taken += 1")
            rdelay_updates(step, 1)
            if index in enders:
                block_exit(1, "core.npc", count)
            else:
                # side exit: a diverted transfer (taken branch slot,
                # or any executor rewriting npc) leaves the region
                w("if core.npc != %d:" % fall)
                block_exit(2, "core.npc", count)

    last = indexes[-1]
    if last not in enders:
        # straight-line fallthrough into the next leader (or off the end,
        # where the trampoline faults exactly like the reference loop)
        block_exit(1, "%d" % (last + steps[last].size), count)
    return out


def _emit_alu(w, item, signed_temp):
    """Inline semantics of one whitelisted ALU-class instruction."""
    name = item.spec.name
    ops = item.operands
    if name == "nop":
        return
    if name in ("movi", "movhi"):
        rd, _rs, imm = ops
        value = imm & M32 if name == "movi" else (imm & 0xFFFF) << 16
        w("rv[%d] = %d" % (rd, value))
        return
    if item.spec.fmt == "R":
        rd, rs, rt = ops
        if name in ("slt", "min", "max", "mulh", "sra"):
            signed_temp("_s", rs, 1)
            if name != "sra":
                signed_temp("_t", rt, 1)
        if name == "add":
            w("rv[%d] = (rv[%d] + rv[%d]) & 4294967295" % (rd, rs, rt))
        elif name == "sub":
            w("rv[%d] = (rv[%d] - rv[%d]) & 4294967295" % (rd, rs, rt))
        elif name == "and":
            w("rv[%d] = rv[%d] & rv[%d]" % (rd, rs, rt))
        elif name == "or":
            w("rv[%d] = rv[%d] | rv[%d]" % (rd, rs, rt))
        elif name == "xor":
            w("rv[%d] = rv[%d] ^ rv[%d]" % (rd, rs, rt))
        elif name == "sll":
            w("rv[%d] = (rv[%d] << (rv[%d] & 31)) & 4294967295"
              % (rd, rs, rt))
        elif name == "srl":
            w("rv[%d] = rv[%d] >> (rv[%d] & 31)" % (rd, rs, rt))
        elif name == "sra":
            w("rv[%d] = (_s >> (rv[%d] & 31)) & 4294967295" % (rd, rt))
        elif name == "slt":
            w("rv[%d] = 1 if _s < _t else 0" % rd)
        elif name == "sltu":
            w("rv[%d] = 1 if rv[%d] < rv[%d] else 0" % (rd, rs, rt))
        elif name == "min":
            w("rv[%d] = (_s if _s < _t else _t) & 4294967295" % rd)
        elif name == "max":
            w("rv[%d] = (_s if _s > _t else _t) & 4294967295" % rd)
        elif name == "minu":
            w("_x = rv[%d]" % rs)
            w("_y = rv[%d]" % rt)
            w("rv[%d] = _x if _x < _y else _y" % rd)
        elif name == "maxu":
            w("_x = rv[%d]" % rs)
            w("_y = rv[%d]" % rt)
            w("rv[%d] = _x if _x > _y else _y" % rd)
        elif name == "mul":
            w("rv[%d] = (rv[%d] * rv[%d]) & 4294967295" % (rd, rs, rt))
        elif name == "mulh":
            w("rv[%d] = ((_s * _t) >> 32) & 4294967295" % rd)
        else:
            raise AssertionError("unhandled R-format op %s" % name)
        return
    rd, rs, imm = ops
    if name in ("srai", "slti"):
        signed_temp("_s", rs, 1)
    if name == "addi":
        w("rv[%d] = (rv[%d] + %d) & 4294967295" % (rd, rs, imm))
    elif name == "andi":
        w("rv[%d] = rv[%d] & %d" % (rd, rs, imm & M32))
    elif name == "ori":
        w("rv[%d] = rv[%d] | %d" % (rd, rs, imm & 0xFFFF))
    elif name == "xori":
        w("rv[%d] = rv[%d] ^ %d" % (rd, rs, imm & 0xFFFF))
    elif name == "slli":
        w("rv[%d] = (rv[%d] << %d) & 4294967295" % (rd, rs, imm & 31))
    elif name == "srli":
        w("rv[%d] = rv[%d] >> %d" % (rd, rs, imm & 31))
    elif name == "srai":
        w("rv[%d] = (_s >> %d) & 4294967295" % (rd, imm & 31))
    elif name == "slti":
        w("rv[%d] = 1 if _s < %d else 0" % (rd, imm))
    elif name == "sltui":
        w("rv[%d] = 1 if rv[%d] < %d else 0" % (rd, rs, imm & M32))
    else:
        raise AssertionError("unhandled immediate op %s" % name)


def _branch_condition(w, item, signed_temp):
    """Emit temps (if needed) and return the branch condition expression."""
    name = item.spec.name
    if name == "beqz":
        return "rv[%d] == 0" % item.operands[0]
    if name == "bnez":
        return "rv[%d] != 0" % item.operands[0]
    rs, rt, _target = item.operands
    op, signed = _BRANCH_CONDS[name]
    if signed:
        signed_temp("_s", rs, 1)
        signed_temp("_t", rt, 1)
        return "_s %s _t" % op
    return "rv[%d] %s rv[%d]" % (rs, op, rt)
