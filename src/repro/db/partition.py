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

import bisect

from .predicates import And, AndNot, Eq, In, Leaf, Or, Range


def _mix32(value):
    """Deterministic 32-bit integer hash (xorshift-multiply avalanche).

    Python's builtin ``hash`` is identity on small ints, which would
    turn hash partitioning into modulo striping; this mixer spreads
    consecutive RIDs and clustered values across shards.
    """
    value &= 0xFFFFFFFF
    value = ((value ^ (value >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    value = ((value ^ (value >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    return value ^ (value >> 16)


class Partitioner:
    """Maps every row of a table to one of ``shards`` partitions."""

    kind = None

    def __init__(self, shards, column=None):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        self.column = column

    def assign(self, table):
        """Shard id per row, in RID order (length == row_count)."""
        raise NotImplementedError

    def router(self, table):
        """Frozen per-table routing closure ``(rid, row) -> shard``.

        Captured at partition time so delta batches route rows
        *incrementally*: the closure must agree with :meth:`assign` on
        every existing row and extend deterministically to new RIDs —
        range bounds in particular are frozen here, never recomputed,
        so existing rows never move shards under deltas.
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

    def assign(self, table):
        shards = self.shards
        if self.column is None:
            return [_mix32(rid) % shards for rid in table.all_rids()]
        return [_mix32(value) % shards
                for value in table.column(self.column)]

    def router(self, table):
        shards = self.shards
        if self.column is None:
            return lambda rid, row: _mix32(rid) % shards
        column = self.column
        return lambda rid, row: _mix32(row[column]) % shards


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

    def assign(self, table):
        rows = table.row_count
        if self.column is None:
            # balanced contiguous slices of the RID space
            return [(rid * self.shards) // rows for rid in range(rows)]
        values = table.column(self.column)
        bounds = self.bounds
        if bounds is None:
            bounds = self._quantile_bounds(values)
        return [bisect.bisect_right(bounds, value) for value in values]

    def _quantile_bounds(self, values):
        ordered = sorted(values)
        rows = len(values)
        return [ordered[(rows * cut) // self.shards - 1]
                for cut in range(1, self.shards)]

    def router(self, table):
        if self.column is not None:
            bounds = self.bounds
            if bounds is None:
                bounds = self._quantile_bounds(
                    table.column(self.column))
            column = self.column
            return lambda rid, row: bisect.bisect_right(bounds,
                                                        row[column])
        # RID mode: freeze the RID cut points of the current
        # assignment.  rid_bounds[i] is the highest RID in shards
        # 0..i, so bisect_left (elements strictly below the probe)
        # lands existing rows exactly where assign() put them and new
        # (higher) RIDs in the last shard.
        assignments = self.assign(table)
        all_rids = table.all_rids()
        rid_bounds = []
        previous = -1
        for position, shard_id in enumerate(assignments):
            while len(rid_bounds) < shard_id:
                rid_bounds.append(previous)
            previous = all_rids[position]
        while len(rid_bounds) < self.shards - 1:
            rid_bounds.append(previous)
        return lambda rid, row: bisect.bisect_left(rid_bounds, rid)


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


def partition_table(table, partitioner):
    """Split *table* into ``partitioner.shards`` sub-tables.

    Each shard is ``table.subset(...)``: a
    :class:`~repro.db.columnar.ColumnarTable` holding its rows under
    the parent's RIDs, with every secondary index of the parent
    rebuilt (leaf scans run shard-locally).
    """
    assignments = partitioner.assign(table)
    if len(assignments) != table.row_count:
        raise ValueError("partitioner assigned %d rows of %d"
                         % (len(assignments), table.row_count))
    shards = partitioner.shards
    rid_lists = [[] for _ in range(shards)]
    for rid, shard_id in zip(table.all_rids(), assignments):
        if not 0 <= shard_id < shards:
            raise ValueError("row %d assigned to shard %r (of %d)"
                             % (rid, shard_id, shards))
        rid_lists[shard_id].append(rid)
    indexed = [name for name in table.column_names
               if table.has_index(name)]
    result = []
    for shard_id, rids in enumerate(rid_lists):
        shard = table.subset("%s/shard%d" % (table.name, shard_id), rids)
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
