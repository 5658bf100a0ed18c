"""Data memories of the processor model.

The paper's processor (Figure 6) is a Harvard machine: a local
instruction memory plus one local data memory per load-store unit, all
single-cycle, and an off-chip main memory reachable only through the
data prefetcher (DBA configurations) or through caches (108Mini).

Addresses are byte addresses; memories are word-organized (32-bit) with
support for the 128-bit wide accesses used by the EIS load/store
instructions.  Word and wide accesses must be naturally aligned —
misalignment raises :class:`MemoryFault`, which has caught real kernel
bugs during development and is exactly what the RTL would do.
"""

from ..telemetry.registry import BoundCounter
from .errors import MemoryFault

#: Standard address map shared by every processor configuration so the
#: same kernel source runs on all of them.
DMEM0_BASE = 0x0000_0000
DMEM1_BASE = 0x0100_0000
MAIN_BASE = 0x8000_0000

M32 = 0xFFFFFFFF

#: Run rollback saves a region in pages of ``1 << UNDO_PAGE_SHIFT``
#: words (4 KB), each at the run's first store to it, so a guarded run
#: pays for the span it writes rather than for the region's size.
UNDO_PAGE_SHIFT = 10


class Memory:
    """A word-organized RAM region.

    *wait_states* is the number of extra cycles an access costs beyond
    the pipelined single-cycle access (0 for local store, >0 for
    uncached system memory).
    """

    def __init__(self, name, base, size_bytes, wait_states=0):
        if size_bytes % 4:
            raise MemoryFault("memory size must be a multiple of 4 bytes")
        self.name = name
        self.base = base
        self.size_bytes = size_bytes
        self.limit = base + size_bytes
        self.wait_states = wait_states
        #: Word store.  Only ever mutated in place: the compiled fast
        #: path (:mod:`repro.cpu.fastpath`) binds this list object.
        self.words = [0] * (size_bytes // 4)
        self.read_accesses = 0
        self.write_accesses = 0
        #: Fault-injection hook (:mod:`repro.faults`): when armed,
        #: called as ``hook(region, addr, kind)`` before every
        #: simulated access.  ``None`` (the default) costs one
        #: comparison per access.
        self.fault_hook = None
        #: Run rollback for fast-path fallback / paranoid replay: one
        #: flag per page, set while a guard waits for the run's first
        #: store to the page, which saves the page into ``_saved`` and
        #: clears the flag, so every other store costs one lookup.
        self._unsaved = bytearray(self._pages())
        self._saved = None

    # -- statistics ----------------------------------------------------------

    def register_metrics(self, registry, prefix):
        """Register counter views over this region's access tallies."""
        registry.register(prefix + ".reads",
                          BoundCounter(self, "read_accesses"))
        registry.register(prefix + ".writes",
                          BoundCounter(self, "write_accesses"))

    def reset_stats(self):
        self.read_accesses = 0
        self.write_accesses = 0

    def contains(self, addr):
        return self.base <= addr < self.limit

    # -- run rollback (fast-path fallback, paranoid replay) ------------------

    def _pages(self):
        return ((len(self.words) - 1) >> UNDO_PAGE_SHIFT) + 1

    def begin_undo(self):
        """Arm rollback: the run's first store to a page saves it."""
        self._unsaved = bytearray(b"\x01") * self._pages()
        self._saved = {}

    def rollback_undo(self):
        """Restore the pages saved during the run; disarm."""
        words = self.words  # written in place: the fast path binds it
        for page, old in (self._saved or {}).items():
            start = page << UNDO_PAGE_SHIFT
            words[start:start + len(old)] = old
        self.discard_undo()

    def discard_undo(self):
        self._unsaved = bytearray(self._pages())
        self._saved = None

    def _journal(self, index, end=None):
        """Save the unsaved pages among words [index, end) ahead of a store.

        *end* defaults to ``index + 1``.  Callers test the flags of the
        first and last word's pages: a store is at most one LSU port
        wide, so it spans at most two pages.
        """
        if end is None:
            end = index + 1
        unsaved, words = self._unsaved, self.words
        for page in range(index >> UNDO_PAGE_SHIFT,
                          ((end - 1) >> UNDO_PAGE_SHIFT) + 1):
            if unsaved[page]:
                start = page << UNDO_PAGE_SHIFT
                self._saved[page] = words[start:start
                                          + (1 << UNDO_PAGE_SHIFT)]
                unsaved[page] = 0

    def _word_index(self, addr):
        if not self.base <= addr < self.limit:
            raise MemoryFault(
                "%s: address 0x%08x outside [0x%08x, 0x%08x)"
                % (self.name, addr, self.base, self.limit))
        return (addr - self.base) >> 2

    # -- scalar access ------------------------------------------------------

    def load(self, addr, size=4, signed=False):
        """Load 1, 2 or 4 bytes (little-endian within the word)."""
        self.read_accesses += 1
        if self.fault_hook is not None:
            self.fault_hook(self, addr, "read")
        if size == 4:
            if addr & 3:
                raise MemoryFault("%s: misaligned 32-bit load at 0x%08x"
                                  % (self.name, addr))
            value = self.words[self._word_index(addr)]
        elif size == 2:
            if addr & 1:
                raise MemoryFault("%s: misaligned 16-bit load at 0x%08x"
                                  % (self.name, addr))
            word = self.words[self._word_index(addr & ~3)]
            value = (word >> ((addr & 2) * 8)) & 0xFFFF
        elif size == 1:
            word = self.words[self._word_index(addr & ~3)]
            value = (word >> ((addr & 3) * 8)) & 0xFF
        else:
            raise MemoryFault("unsupported access size %r" % (size,))
        if signed:
            sign_bit = 1 << (size * 8 - 1)
            if value & sign_bit:
                value -= sign_bit << 1
            value &= M32
        return value

    def store(self, addr, value, size=4):
        self.write_accesses += 1
        if self.fault_hook is not None:
            self.fault_hook(self, addr, "write")
        if size == 4:
            if addr & 3:
                raise MemoryFault("%s: misaligned 32-bit store at 0x%08x"
                                  % (self.name, addr))
            index = self._word_index(addr)
            if self._unsaved[index >> UNDO_PAGE_SHIFT]:
                self._journal(index)
            self.words[index] = value & M32
            return
        index = self._word_index(addr & ~3)
        if self._unsaved[index >> UNDO_PAGE_SHIFT]:
            self._journal(index)
        word = self.words[index]
        if size == 2:
            if addr & 1:
                raise MemoryFault("%s: misaligned 16-bit store at 0x%08x"
                                  % (self.name, addr))
            shift = (addr & 2) * 8
            word = (word & ~(0xFFFF << shift)) | ((value & 0xFFFF) << shift)
        elif size == 1:
            shift = (addr & 3) * 8
            word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        else:
            raise MemoryFault("unsupported access size %r" % (size,))
        self.words[index] = word

    # -- wide (128-bit) access for the EIS instructions ---------------------

    def load_block(self, addr, nwords):
        """Load *nwords* consecutive 32-bit words (EIS 128-bit loads)."""
        self.read_accesses += 1
        if self.fault_hook is not None:
            self.fault_hook(self, addr, "read")
        if addr & 3:
            raise MemoryFault("%s: misaligned wide load at 0x%08x"
                              % (self.name, addr))
        index = self._word_index(addr)
        end = index + nwords
        if end > len(self.words):
            raise MemoryFault("%s: wide load at 0x%08x runs off the end"
                              % (self.name, addr))
        return self.words[index:end]

    def store_block(self, addr, values):
        self.write_accesses += 1
        if self.fault_hook is not None:
            self.fault_hook(self, addr, "write")
        if addr & 3:
            raise MemoryFault("%s: misaligned wide store at 0x%08x"
                              % (self.name, addr))
        index = self._word_index(addr)
        end = index + len(values)
        if end > len(self.words):
            raise MemoryFault("%s: wide store at 0x%08x runs off the end"
                              % (self.name, addr))
        unsaved = self._unsaved
        if unsaved[index >> UNDO_PAGE_SHIFT] \
                or unsaved[(end - 1) >> UNDO_PAGE_SHIFT]:
            self._journal(index, end)
        self.words[index:end] = [v & M32 for v in values]

    # -- bulk host access (test benches, workload setup) ---------------------

    def write_words(self, addr, values):
        """Host-side bulk write; does not count as a simulated access."""
        if addr & 3:
            raise MemoryFault("bulk write must be word aligned")
        index = self._word_index(addr)
        if index + len(values) > len(self.words):
            raise MemoryFault("bulk write overruns %s" % self.name)
        if self._saved is not None and values:
            # the DMA prefetcher moves data through this path mid-run
            self._journal(index, index + len(values))
        self.words[index:index + len(values)] = [v & M32 for v in values]

    def read_words(self, addr, count):
        """Host-side bulk read; does not count as a simulated access."""
        if addr & 3:
            raise MemoryFault("bulk read must be word aligned")
        index = self._word_index(addr)
        if index + count > len(self.words):
            raise MemoryFault("bulk read overruns %s" % self.name)
        return list(self.words[index:index + count])


class MemoryMap:
    """Routes byte addresses to the responsible memory region."""

    def __init__(self, regions):
        self.regions = sorted(regions, key=lambda m: m.base)
        for first, second in zip(self.regions, self.regions[1:]):
            if first.limit > second.base:
                raise MemoryFault("overlapping regions %s and %s"
                                  % (first.name, second.name))

    def region_for(self, addr):
        for region in self.regions:
            if region.base <= addr < region.limit:
                return region
        raise MemoryFault("unmapped address 0x%08x" % addr)

    def __iter__(self):
        return iter(self.regions)
