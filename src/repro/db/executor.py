"""Query execution on the database processor.

Evaluates WHERE-clause predicate trees by running the RID-list set
algebra on a processor built from :mod:`repro.configs` — with the EIS
kernels when the processor has the extension, falling back to the
scalar kernels otherwise — and ORDER BY via the merge-sort
instructions using key/RID packing.

The executor reports per-query cycle counts and (given a synthesis
report) latency and energy, turning the paper's microbenchmarks into
end-to-end query numbers (see ``examples/query_engine.py``).

Two execution paths produce those cycle counts:

* the default ISS path simulates every kernel instruction, and
* an opt-in :class:`~repro.core.costmodel.CostModel` computes results
  with plain set algebra and predicts the identical cycle count from
  a calibrated event-count model (``repro.db.engine`` enables it for
  batch serving; paper experiments keep the ISS default).

:class:`QueryStats` attributes cycles to their source (``iss`` vs
``costmodel``) so mixed-path runs stay auditable.

RID vectors are sorted int64 ndarrays from the index scan to the
caller: set operations, ORDER BY and short-circuits all return one, on
both execution paths.
"""

import numpy as _np

from ..core.costmodel import operand_list
from ..core.kernels import run_merge_sort, run_set_operation
from ..core.scalar_kernels import (run_scalar_merge_sort,
                                   run_scalar_set_operation)
from .predicates import Combinator, Leaf, validate_indexes

#: Bit budget for ORDER BY key/RID packing: key << RID_BITS | rid.
RID_BITS = 12


class QueryStats:
    """Accumulated accelerator usage of one query."""

    def __init__(self):
        self.set_operations = 0
        self.sort_operations = 0
        self.cycles = 0
        self.index_scans = 0
        self.short_circuits = 0
        self.cycles_by_source = {"iss": 0, "costmodel": 0}

    def add_cycles(self, cycles, source="iss"):
        self.cycles += cycles
        self.cycles_by_source[source] = \
            self.cycles_by_source.get(source, 0) + cycles

    def add_run(self, run_result, source="iss"):
        self.add_cycles(run_result.cycles, source)

    def latency_us(self, clock_mhz):
        return self.cycles / clock_mhz

    def energy_uj(self, power_mw, clock_mhz):
        return power_mw * self.latency_us(clock_mhz) / 1000.0

    def to_dict(self):
        """JSON form (embedded in run reports and bench artifacts)."""
        return {
            "set_operations": self.set_operations,
            "sort_operations": self.sort_operations,
            "index_scans": self.index_scans,
            "short_circuits": self.short_circuits,
            "cycles": self.cycles,
            "cycles_by_source": dict(self.cycles_by_source),
        }

    def __repr__(self):
        return ("<QueryStats %d cycles, %d set ops, %d sorts, %d "
                "scans>" % (self.cycles, self.set_operations,
                            self.sort_operations, self.index_scans))


class QueryExecutor:
    """Runs predicate trees and ORDER BY on one processor instance.

    *cost_model* (a :class:`repro.core.costmodel.CostModel` or None)
    selects the execution path for kernels; None means pure ISS.
    """

    def __init__(self, processor, cost_model=None):
        self.processor = processor
        self.cost_model = cost_model
        self._has_eis = "db_eis" in processor.extension_states
        #: (id(table), column) -> (key array, pre-shifted keys); the
        #: identity of the key array guards against id() reuse.
        self._packed_key_cache = {}

    # -- WHERE ---------------------------------------------------------------

    def where(self, table, predicate):
        """Evaluate a predicate tree; returns ``(rids, QueryStats)``
        with *rids* a sorted int64 ndarray."""
        validate_indexes(predicate, table)
        stats = QueryStats()
        rids = self._evaluate(table, predicate, stats)
        return rids, stats

    def _evaluate(self, table, predicate, stats):
        if isinstance(predicate, Leaf):
            stats.index_scans += 1
            return predicate.scan(table)
        if not isinstance(predicate, Combinator):
            raise TypeError("not a predicate: %r" % (predicate,))
        left = self._evaluate(table, predicate.left, stats)
        right = self._evaluate(table, predicate.right, stats)
        return self.set_operation(predicate.operation, left, right,
                                  stats)

    def set_operation(self, which, left, right, stats):
        """One cycle-accounted RID-list set operation.

        Empty operands short-circuit without launching a kernel (and
        without charging cycles — identically on the ISS and the
        cost-model paths, so the two stay differentially comparable).
        A short-circuit may hand back the surviving operand array
        itself, so callers treat results as read-only.
        """
        if len(left) == 0 or len(right) == 0:
            stats.short_circuits += 1
            if which == "intersection":
                return _np.empty(0, dtype=_np.int64)
            if which == "union" and not len(left):
                return _np.asarray(right, dtype=_np.int64)
            # difference: A - empty = A, empty - B = empty
            return _np.asarray(left, dtype=_np.int64)
        if which == "intersection" and len(right) < len(left):
            # index-ANDing order: smaller list first (Raman et al.)
            left, right = right, left
        stats.set_operations += 1
        if self.cost_model is not None:
            values, cycles, source = self.cost_model.set_operation(
                self.processor, which, left, right)
            stats.add_cycles(cycles, source)
            return values
        result, run_result = self._set_operation(which, left, right)
        stats.add_run(run_result, "iss")
        return result

    def _set_operation(self, which, left, right):
        runner = run_set_operation if self._has_eis \
            else run_scalar_set_operation
        values, run_result = runner(self.processor, which,
                                    operand_list(left),
                                    operand_list(right),
                                    validate_input=False)
        return _np.asarray(values, dtype=_np.int64), run_result

    # -- ORDER BY -------------------------------------------------------------

    def order_by(self, table, rids, key_column, descending=False):
        """Sort a RID list by a key column on the processor.

        Keys and RIDs are packed into single 32-bit words
        (``key << 12 | rid``) so the merge-sort instructions order
        whole rows — the standard key/pointer packing used with
        hardware sorters.  Requires ``rid_limit() <= 4096`` and keys
        below ``2**19`` (dictionary-encode larger domains first).
        """
        stats = QueryStats()
        if len(rids) == 0:
            return _np.empty(0, dtype=_np.int64), stats
        packed = self.pack_rids(table, rids, key_column)
        sorted_packed, stats = self.sort_packed(packed, stats)
        ordered = sorted_packed & ((1 << RID_BITS) - 1)
        return (ordered[::-1] if descending else ordered), stats

    def pack_rids(self, table, rids, key_column):
        """``key << RID_BITS | rid`` packed words for a RID list.

        Pure packing, no cycles charged — the sharded engine packs per
        shard and sorts the pieces in parallel, so packing and sorting
        are separate steps.
        """
        if table.rid_limit() > (1 << RID_BITS):
            raise ValueError(
                "ORDER BY packing supports up to %d rows; shard or "
                "widen RID_BITS" % (1 << RID_BITS))
        shifted = self._shifted_keys(table, key_column)
        rids = _np.asarray(rids, dtype=_np.int64)
        # rid < 2**RID_BITS and the shifted key is a multiple of
        # 2**RID_BITS, so | equals +.
        return shifted[rids] + rids

    def sort_packed(self, packed, stats=None):
        """Cycle-accounted merge sort of pre-packed key/RID words."""
        if stats is None:
            stats = QueryStats()
        if len(packed) == 0:
            return _np.empty(0, dtype=_np.int64), stats
        stats.sort_operations += 1
        if self.cost_model is not None:
            sorted_packed, cycles, source = self.cost_model.merge_sort(
                self.processor, packed)
            stats.add_cycles(cycles, source)
        else:
            sorted_packed, run_result = self._sort(packed)
            stats.add_run(run_result, "iss")
        return sorted_packed, stats

    def _shifted_keys(self, table, key_column):
        """Memoized ``key << RID_BITS`` per (table, column).

        Validates the key domain once per column instead of per row;
        repeated ORDER BYs (the common batch-serving case) skip both
        the column lookup and the per-row shifting.
        """
        cache_key = (id(table), key_column)
        cached = self._packed_key_cache.get(cache_key)
        keys = table.rid_indexed_column(key_column)
        if cached is not None and cached[0] is keys:
            # Tables memoize rid_indexed_column per version, so a
            # delta naturally rotates this cache entry too.
            return cached[1]
        key_bits = 32 - RID_BITS - 1  # keep below the sentinel
        if len(keys) and int(keys.max()) >= 1 << key_bits:
            raise ValueError(
                "ORDER BY keys must be below 2**%d; dictionary-"
                "encode the column" % key_bits)
        shifted = keys << RID_BITS
        self._packed_key_cache[cache_key] = (keys, shifted)
        return shifted

    def _sort(self, values):
        runner = run_merge_sort if self._has_eis \
            else run_scalar_merge_sort
        values, run_result = runner(self.processor, operand_list(values),
                                    validate_input=False)
        return _np.asarray(values, dtype=_np.int64), run_result

    # -- full query -----------------------------------------------------------

    def select(self, table, predicate=None, order_by=None,
               descending=False, columns=None, limit=None):
        """WHERE + ORDER BY + projection; returns ``(rows, stats)``."""
        stats = QueryStats()
        if predicate is not None:
            rids, where_stats = self.where(table, predicate)
            _merge_stats(stats, where_stats)
        else:
            rids = table.all_rids()
        if order_by is not None:
            rids, sort_stats = self.order_by(table, rids, order_by,
                                             descending)
            _merge_stats(stats, sort_stats)
        if limit is not None:
            rids = rids[:limit]
        return table.fetch(rids, columns), stats


def _merge_stats(target, source):
    target.set_operations += source.set_operations
    target.sort_operations += source.sort_operations
    target.index_scans += source.index_scans
    target.short_circuits += source.short_circuits
    for key, value in source.cycles_by_source.items():
        target.add_cycles(value, key)
