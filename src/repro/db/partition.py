"""Table partitioning for sharded scale-out.

The paper's Section 5.4 iso-area discussion spends one x86 die's area
on N small EIS cores; :mod:`repro.db.shard` makes that concrete by
splitting a :class:`~repro.db.columnar.ColumnarTable` into N disjoint
partitions, one per simulated processor.  This module owns the
partitioning policies and the partition-level reasoning the sharded
engine needs:

* :class:`HashPartitioner` — rows scatter by a multiplicative hash of
  the RID (balanced, the uniform baseline) or of a column value
  (co-locates equal values, which is what makes skewed value
  distributions produce skewed shards);
* :class:`RangePartitioner` — contiguous RID slices, or equal-depth
  value ranges over a column (classic range sharding);
* :func:`partition_table` — materializes shard sub-tables that keep
  the parent's RIDs, so a shard's sorted scan results are already
  sorted parent RID lists and the gather reduce can run on the EIS
  union/merge kernels directly;
* :func:`shard_may_match` — the scatter-time pruning analysis: a
  shard whose partition provably holds no row for the query's leaves
  returns an empty RID list without dispatching any work
  (``db.shard.skipped``).
"""

import numpy as _np

from .predicates import And, AndNot, Eq, In, Leaf, Or, Range


def _mix32(values):
    """Deterministic 32-bit integer hash (xorshift-multiply avalanche),
    elementwise over an int64 array.

    Python's builtin ``hash`` is identity on small ints, which would
    turn hash partitioning into modulo striping; this mixer spreads
    consecutive RIDs and clustered values across shards.  Operands are
    masked to 32 bits, so each product stays below 2**59 and int64
    never overflows.
    """
    values = _np.asarray(values, dtype=_np.int64) & 0xFFFFFFFF
    values = ((values ^ (values >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    values = ((values ^ (values >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    return values ^ (values >> 16)


class Partitioner:
    """Maps every row of a table to one of ``shards`` partitions."""

    kind = None

    def __init__(self, shards, column=None):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        self.column = column

    def router(self, table):
        """Frozen routing function ``(rids, columns) -> shard ids``.

        *rids* is an int64 array and *columns* maps column names to
        integer value arrays of the same length; the result is one
        shard id per row.  :func:`partition_table` places the table's rows
        with it and delta batches route inserts through it, so state
        the mapping depends on (range bounds in particular) is frozen
        here, never recomputed: existing rows never move shards.
        """
        raise NotImplementedError

    def describe(self):
        target = self.column if self.column is not None else "rid"
        return "%s(%s) x %d" % (self.kind, target, self.shards)

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.describe())


class HashPartitioner(Partitioner):
    """Rows scatter by hash of the RID (default) or a column value."""

    kind = "hash"

    def router(self, table):
        shards = self.shards
        if self.column is None:
            return lambda rids, columns: _mix32(rids) % shards
        column = self.column
        return lambda rids, columns: _mix32(columns[column]) % shards


class RangePartitioner(Partitioner):
    """Contiguous RID slices, or value ranges over a column.

    With a *column*, cut points default to equal-depth quantiles of
    the column's values (computed deterministically from the sorted
    column); pass explicit *bounds* (``shards - 1`` ascending cut
    values, rows with ``value <= bounds[i]`` land at or before shard
    ``i``) to pin the ranges.
    """

    kind = "range"

    def __init__(self, shards, column=None, bounds=None):
        super().__init__(shards, column)
        if bounds is not None:
            bounds = list(bounds)
            if len(bounds) != shards - 1:
                raise ValueError("need shards - 1 bounds, got %d"
                                 % len(bounds))
            if bounds != sorted(bounds):
                raise ValueError("bounds must be ascending")
        self.bounds = bounds

    def router(self, table):
        cuts = _np.arange(1, self.shards)
        if self.column is not None:
            bounds = self.bounds
            if bounds is None:
                # Equal-depth quantiles of the column's values.
                ordered = _np.sort(_np.asarray(table.column(self.column),
                                               dtype=_np.int64))
                bounds = ordered[(len(ordered) * cuts) // self.shards - 1]
            bounds = _np.asarray(bounds, dtype=_np.int64)
            column = self.column
            return lambda rids, columns: _np.searchsorted(
                bounds, columns[column], side="right")
        # RID mode: balanced contiguous slices of the live rows in RID
        # order.  ends[i] rows fall in shards 0..i, so rid_bounds[i] is
        # the highest RID there (-1 while they are empty) and
        # side="left" (bounds strictly below the probe) lands existing
        # rows in their slice and new (higher) RIDs in the last shard.
        live = _np.asarray(table.all_rids(), dtype=_np.int64)
        ends = (cuts * live.size + self.shards - 1) // self.shards
        rid_bounds = _np.concatenate(([-1], live))[ends]
        return lambda rids, columns: _np.searchsorted(
            rid_bounds, rids, side="left")


PARTITIONER_KINDS = ("hash", "range")


def make_partitioner(kind, shards, column=None):
    """Partitioner from its CLI spelling (``hash`` / ``range``)."""
    if isinstance(kind, Partitioner):
        return kind
    if kind == "hash":
        return HashPartitioner(shards, column=column)
    if kind == "range":
        return RangePartitioner(shards, column=column)
    raise ValueError("unknown partitioner %r (one of %s)"
                     % (kind, ", ".join(PARTITIONER_KINDS)))


def route(router, shards, rids, columns):
    """Shard id per row from *router*, checked to lie in
    ``0..shards-1`` (ValueError otherwise)."""
    assignments = _np.asarray(router(rids, columns))
    if assignments.shape != rids.shape:
        raise ValueError("partitioner assigned %d rows of %d"
                         % (assignments.size, rids.size))
    bad = (assignments < 0) | (assignments >= shards)
    if bad.any():
        first = int(_np.argmax(bad))
        raise ValueError("row %d assigned to shard %d (of %d)"
                         % (rids[first], assignments[first], shards))
    return assignments


def partition_table(table, partitioner):
    """Split *table* into ``partitioner.shards`` sub-tables.

    Rows are placed by :meth:`Partitioner.router`.  Each shard is
    ``table.subset(...)``: a :class:`~repro.db.columnar.ColumnarTable`
    holding its rows under the parent's RIDs, with every secondary
    index of the parent rebuilt (leaf scans run shard-locally).
    """
    rids, columns = table.live_arrays()
    assignments = route(partitioner.router(table), partitioner.shards,
                        rids, columns)
    indexed = [name for name in table.column_names
               if table.has_index(name)]
    result = []
    for shard_id in range(partitioner.shards):
        shard = table.subset("%s/shard%d" % (table.name, shard_id),
                             rids[assignments == shard_id])
        for name in indexed:
            shard.create_index(name)
        result.append(shard)
    return result


# ---------------------------------------------------------------------------
# scatter-time pruning
# ---------------------------------------------------------------------------

def _leaf_may_match(table, leaf):
    """Can this leaf scan return any row on *table*?

    Probes the secondary index without materializing RID lists
    (:meth:`~repro.db.columnar.ColumnarIndex.count_eq` /
    ``count_range``); an unindexed column conservatively answers yes.
    """
    if not table.has_index(leaf.column):
        return True
    index = table.index(leaf.column)
    if isinstance(leaf, Eq):
        return index.count_eq(leaf.value) > 0
    if isinstance(leaf, Range):
        return index.count_range(leaf.low, leaf.high) > 0
    if isinstance(leaf, In):
        return any(index.count_eq(value) > 0 for value in leaf.values)
    return True  # unknown leaf shape: never prune


def shard_may_match(table, predicate):
    """Can *predicate* select any row of this shard's *table*?

    A sound (never prunes a matching shard) recursive emptiness
    analysis over the predicate tree:

    * a leaf may match iff its index probe finds at least one row;
    * ``AND`` needs both sides, ``OR`` needs either side;
    * ``ANDNOT`` needs only its left side (the subtrahend cannot add
      rows).

    ``False`` means the shard provably contributes nothing and the
    scatter can skip it outright.
    """
    if table.row_count == 0:
        return False
    if predicate is None:
        return True
    if isinstance(predicate, Leaf):
        return _leaf_may_match(table, predicate)
    if isinstance(predicate, And):
        return (shard_may_match(table, predicate.left)
                and shard_may_match(table, predicate.right))
    if isinstance(predicate, AndNot):
        return shard_may_match(table, predicate.left)
    if isinstance(predicate, Or):
        return (shard_may_match(table, predicate.left)
                or shard_may_match(table, predicate.right))
    return True  # unknown combinator: never prune


def plan_replicas(loads, shards, replication, budget=None):
    """Replica host assignment: hottest shards first, peer-hosted.

    Returns ``placement[shard] = [host, ...]`` — the engine indices
    (other than the primary, which is always ``shard`` itself) that
    also hold shard *shard*'s rows.  Shard ``i``'s rank-``r`` replica
    lives on engine ``(i + r) % shards``, so replicas spread evenly
    and no engine hosts two copies of the same shard; ``replication``
    is therefore bounded by ``shards - 1``.

    *loads* is the per-shard load vector (row counts at partition
    time, or measured cycles) — the same vector :func:`skew_ratio`
    grades.  With a *budget* (a cap on total replica placements, for
    when replica memory is scarce), the hottest shards are served
    first, round by round: every shard above a load rank gets its
    first replica before any shard gets its second, so a Zipfian hot
    shard is always the first to be protected.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    if not 0 <= replication <= shards - 1:
        raise ValueError("replication must be within 0..shards-1 "
                         "(each copy needs a distinct engine), got %d "
                         "for %d shard(s)" % (replication, shards))
    loads = list(loads)
    if len(loads) != shards:
        raise ValueError("load vector covers %d shard(s) of %d"
                         % (len(loads), shards))
    placement = [[] for _ in range(shards)]
    if not replication:
        return placement
    remaining = shards * replication if budget is None else budget
    order = sorted(range(shards), key=lambda i: (-loads[i], i))
    for rank in range(1, replication + 1):
        for shard in order:
            if remaining <= 0:
                return placement
            placement[shard].append((shard + rank) % shards)
            remaining -= 1
    return placement


def skew_ratio(values):
    """Max-over-mean imbalance of a per-shard load vector.

    ``1.0`` is perfectly balanced; ``len(values)`` means one shard
    carries everything.  Empty or all-zero vectors report ``1.0``
    (nothing is imbalanced about no load).
    """
    values = list(values)
    total = sum(values)
    if not values or not total:
        return 1.0
    return max(values) * len(values) / total
