"""Struct-of-arrays columnar tables with Z-set delta maintenance.

This is the storage engine of :mod:`repro.db`: secondary-index scans
over these tables produce the sorted RID lists the EIS set and sort
instructions consume (the paper's Section 2.3 query layer).  Tables
follow the Z-set/weighted-delta model (tables as multisets with
integer weights; updates arrive as batches of +1/-1-weighted rows)
over NumPy struct-of-arrays storage:

* :class:`ColumnarTable` keeps each column as one ``uint32`` ndarray
  plus a parallel ``int8`` weight vector and a strictly-ascending RID
  vector.  RIDs are stable for the lifetime of a row — deletion flips
  the weight to zero (a tombstone) and physical removal is deferred to
  compaction, so derived state never has to renumber anything.
* :class:`DeltaBatch` carries one update: full inserted rows plus RIDs
  to delete.  A delete aimed at a row inserted by the same batch
  annihilates both sides ("ghost" rows) — neither is ever observable,
  matching the Z-set addition ``+1 + -1 = 0``.
* :class:`ColumnarIndex` keeps postings as ``(value, rid)`` pairs in
  value order, built by one argsort.  Delta batches *merge* into the
  postings (``np.searchsorted`` positions + one ``np.insert``) instead
  of re-sorting the column; deletions are tombstone-filtered at scan
  time through the table's live-RID lookup.  Range and membership
  scans read a parallel RID-ordered view of the column, so their
  results are born RID-sorted — no per-call ``sorted()``.

Scan results cross back into the engine as sorted int64 RID ndarrays
(fresh arrays, never views of the postings): the cost model and the
executor keep them as ndarrays up to the query's result boundary.
"""

import numpy as _np

from ..core.common import SENTINEL

#: Compact once dead rows exceed this fraction of physical storage.
DEFAULT_COMPACT_THRESHOLD = 0.5


class DeltaBatch:
    """One Z-set update: ±1-weighted rows.

    ``inserts`` maps every column name to an equal-length list of new
    values (full rows; partial rows are rejected by the table).
    ``delete_rids`` names existing live rows to retract — or rows
    inserted by this very batch, in which case both sides annihilate.

    ``insert_rids`` pre-assigns global RIDs to the inserted rows; it is
    used by the sharded delta router to replay a coordinator-assigned
    batch onto shard tables and must be strictly ascending and above
    every RID the target table has ever assigned.
    """

    __slots__ = ("inserts", "delete_rids", "insert_rids")

    def __init__(self, inserts=None, delete_rids=(), insert_rids=None):
        self.inserts = dict(inserts) if inserts else {}
        length = None
        for column_name, values in self.inserts.items():
            values = list(values)
            if length is None:
                length = len(values)
            elif len(values) != length:
                raise ValueError("delta insert column lengths differ "
                                 "(%s)" % column_name)
            self.inserts[column_name] = values
        deletes = [int(rid) for rid in delete_rids]
        if len(set(deletes)) != len(deletes):
            raise ValueError("delta deletes the same RID twice; "
                             "Z-set weights stay within {-1, 0, +1}")
        self.delete_rids = deletes
        if insert_rids is not None:
            insert_rids = [int(rid) for rid in insert_rids]
            if len(insert_rids) != self.insert_count:
                raise ValueError("insert_rids length does not match "
                                 "inserted rows")
            if any(b <= a for a, b in zip(insert_rids, insert_rids[1:])):
                raise ValueError("insert_rids must be strictly "
                                 "ascending")
        self.insert_rids = insert_rids

    @property
    def insert_count(self):
        for values in self.inserts.values():
            return len(values)
        return 0

    @classmethod
    def from_spec(cls, spec):
        """Build from a plain-dict spec (the workload generator's
        output): ``{"insert": {col: [...]}, "delete_rids": [...]}``."""
        return cls(inserts=spec.get("insert") or None,
                   delete_rids=spec.get("delete_rids", ()))

    def __repr__(self):
        return "<DeltaBatch +%d rows -%d rids>" % (
            self.insert_count, len(self.delete_rids))


class ColumnarTable:
    """Struct-of-arrays table with stable RIDs and weighted rows.

    *columns* maps column names to equal-length value sequences
    (32-bit, below the sentinel); *rids* optionally names each row's
    RID (strictly ascending, default ``0..n-1``).  Shard sub-tables
    and worker-process copies pass the parent's RIDs, so their scan
    results are already in the parent's RID space.
    """

    def __init__(self, name, columns, rids=None,
                 compact_threshold=DEFAULT_COMPACT_THRESHOLD):
        self.name = name
        self._data = {}
        length = None
        for column_name, values in columns.items():
            array = _np.asarray(values, dtype=_np.int64)
            if array.size and (array.min() < 0
                               or array.max() >= SENTINEL):
                raise ValueError(
                    "%s.%s: values must be 32-bit below the "
                    "sentinel" % (name, column_name))
            if length is None:
                length = int(array.size)
            elif int(array.size) != length:
                raise ValueError("column lengths differ in table %s"
                                 % name)
            self._data[column_name] = array.astype(_np.uint32)
        length = length or 0
        if rids is None:
            self._rids = _np.arange(length, dtype=_np.int64)
        else:
            self._rids = _np.array(rids, dtype=_np.int64)
            if int(self._rids.size) != length:
                raise ValueError("rid vector length does not match "
                                 "columns in table %s" % name)
            if self._rids.size and (self._rids.min() < 0 or _np.any(
                    _np.diff(self._rids) <= 0)):
                raise ValueError("rids must be strictly ascending")
        self._weights = _np.ones(length, dtype=_np.int8)
        self._next_rid = int(self._rids[-1]) + 1 if length else 0
        self._alive = _np.zeros(self._next_rid, dtype=bool)
        self._alive[self._rids] = True
        self._live = length
        self._dead = 0
        self.compact_threshold = compact_threshold
        self.version = 0
        self.compactions = 0
        self._indexes = {}
        self._memo = {}

    # -- read API ----------------------------------------------------

    @property
    def row_count(self):
        return self._live

    @property
    def column_names(self):
        """The table's column names (a set-like view, for membership
        tests and iteration)."""
        return self._data.keys()

    def column(self, name):
        """Live values of one column, in RID order, as a plain list."""
        key = ("column", name)
        cached = self._memo.get(key)
        if cached is None:
            _rids, values = self._live_view(name)
            cached = values.tolist()
            self._memo[key] = cached
        return cached

    def _live_view(self, name):
        """``(rids, values)`` ndarrays of live rows, in RID order.

        This is the parallel RID-sorted view backing the sort-free
        range/membership scans: ``self._rids`` is strictly ascending,
        so any boolean mask over it yields RID-sorted output.
        """
        if name not in self._data:
            raise KeyError("table %s has no column %r"
                           % (self.name, name))
        key = ("live", name)
        cached = self._memo.get(key)
        if cached is None:
            mask = self._memo.get("live_mask")
            if mask is None:
                mask = self._weights > 0
                self._memo["live_mask"] = mask
            cached = (self._rids[mask], self._data[name][mask])
            self._memo[key] = cached
        return cached

    def live_arrays(self):
        """``(rids, {column: values})`` live ndarrays in RID order.

        Exactly what ``ColumnarTable(name, columns, rids=rids)`` needs
        to rebuild this table's live rows under the same RIDs — the
        form tables are shipped to worker processes in.
        """
        live = self._weights > 0
        return self._rids[live], {name: values[live] for name, values
                                  in self._data.items()}

    def all_rids(self):
        """Sorted live RIDs (the full-scan operand), as a read-only
        int64 ndarray memoized per version."""
        cached = self._memo.get("all_rids")
        if cached is None:
            cached = self._rids[self._weights > 0]
            cached.flags.writeable = False
            self._memo["all_rids"] = cached
        return cached

    def rid_limit(self):
        """Exclusive upper bound of the RID space ever assigned."""
        return self._next_rid

    def rid_indexed_column(self, name):
        """Dense ``array[rid] -> value`` lookup for the packing path.

        Memoized per version; the executor's packed-key cache keys on
        object identity, so returning the same array until the next
        delta keeps that cache honest.
        """
        key = ("rid_indexed", name)
        cached = self._memo.get(key)
        if cached is None:
            rids, values = self._live_view(name)
            cached = _np.zeros(self._next_rid, dtype=_np.int64)
            cached[rids] = values
            self._memo[key] = cached
        return cached

    def fetch(self, rids, column_names=None):
        """Materialize rows (as dicts) for a RID list, vectorized."""
        names = list(column_names or self._data)
        if not len(rids):
            return []
        positions = self._positions_of(_np.asarray(rids,
                                                   dtype=_np.int64))
        columns = [self._data[name][positions].tolist()
                   for name in names]
        return [dict(zip(names, row)) for row in zip(*columns)]

    def _positions_of(self, rids):
        """Physical positions of live *rids*; KeyError on misses."""
        positions = _np.searchsorted(self._rids, rids)
        valid = positions < self._rids.size
        if not valid.all():
            raise KeyError("table %s has no live row %d" % (
                self.name, int(rids[_np.argmin(valid)])))
        hit = self._rids[positions] == rids
        live = self._weights[positions] > 0
        ok = hit & live
        if not ok.all():
            raise KeyError("table %s has no live row %d" % (
                self.name, int(rids[int(_np.argmin(ok))])))
        return positions

    # -- indexes -----------------------------------------------------

    def create_index(self, column_name):
        """Build (or return) the columnar index on a column."""
        if column_name not in self._indexes:
            if column_name not in self._data:
                raise KeyError("table %s has no column %r"
                               % (self.name, column_name))
            self._indexes[column_name] = ColumnarIndex(self,
                                                       column_name)
        return self._indexes[column_name]

    def index(self, column_name):
        if column_name not in self._indexes:
            raise KeyError("no index on %s.%s; call create_index"
                           % (self.name, column_name))
        return self._indexes[column_name]

    def has_index(self, column_name):
        return column_name in self._indexes

    # -- delta maintenance -------------------------------------------

    def apply_delta(self, batch):
        """Apply one ±1-weighted :class:`DeltaBatch`.

        Returns an outcome dict: effective ``insert_rids`` /
        ``insert_columns`` / ``deleted_rids`` (ghosts excluded),
        ``annihilated`` count, per-column ``touched`` value arrays
        (the cache-invalidation footprint) and whether compaction ran.
        """
        count = batch.insert_count
        if batch.inserts and set(batch.inserts) != set(self._data):
            raise ValueError("delta inserts must carry full rows of "
                             "table %s" % self.name)
        if batch.insert_rids is not None:
            new_rids = _np.asarray(batch.insert_rids, dtype=_np.int64)
            if new_rids.size and int(new_rids[0]) < self._next_rid:
                raise ValueError("pre-assigned insert rids collide "
                                 "with table %s rid space" % self.name)
        else:
            new_rids = _np.arange(self._next_rid,
                                  self._next_rid + count,
                                  dtype=_np.int64)
        insert_columns = {}
        for column_name, values in batch.inserts.items():
            array = _np.asarray(values, dtype=_np.int64)
            if array.size and (array.min() < 0
                               or array.max() >= SENTINEL):
                raise ValueError(
                    "%s.%s: values must be 32-bit below the "
                    "sentinel" % (self.name, column_name))
            insert_columns[column_name] = array
        deletes = _np.asarray(batch.delete_rids, dtype=_np.int64)

        ghost_mask = _np.isin(deletes, new_rids)
        ghosts = deletes[ghost_mask]
        deletes = deletes[~ghost_mask]
        deletes.sort()
        keep = ~_np.isin(new_rids, ghosts)
        eff_rids = new_rids[keep]
        eff_columns = {name: values[keep]
                       for name, values in insert_columns.items()}

        positions = (self._positions_of(deletes) if deletes.size
                     else _np.empty(0, dtype=_np.int64))

        touched = {}
        for name in self._data:
            parts = [self._data[name][positions].astype(_np.int64)]
            if name in eff_columns:
                parts.append(eff_columns[name])
            touched[name] = _np.unique(_np.concatenate(parts))

        # Retract: weight -> 0 tombstones, physical removal deferred.
        if deletes.size:
            self._weights[positions] = 0
            self._alive[deletes] = False
            self._dead += int(deletes.size)
            self._live -= int(deletes.size)
        # Insert: append; RID order is preserved because every new RID
        # is above everything previously assigned.
        if eff_rids.size:
            for name in self._data:
                self._data[name] = _np.concatenate(
                    [self._data[name],
                     eff_columns[name].astype(_np.uint32)])
            self._rids = _np.concatenate([self._rids, eff_rids])
            self._weights = _np.concatenate(
                [self._weights, _np.ones(eff_rids.size, dtype=_np.int8)])
            self._live += int(eff_rids.size)
        if count:
            # Ghost rows still consume RID space: the workload
            # generator mirrors this assignment deterministically.
            self._next_rid = max(self._next_rid,
                                 int(new_rids[-1]) + 1)
        if self._next_rid > self._alive.size:
            grown = _np.zeros(self._next_rid, dtype=bool)
            grown[:self._alive.size] = self._alive
            grown[eff_rids] = True
            self._alive = grown
        elif eff_rids.size:
            self._alive[eff_rids] = True
        self.version += 1
        self._memo = {}

        for index in self._indexes.values():
            index.apply_delta(eff_columns.get(index.column_name),
                              eff_rids)

        compacted = False
        if self._rids.size and (self._dead / self._rids.size
                                > self.compact_threshold):
            self._compact()
            compacted = True
        return {"insert_rids": eff_rids,
                "insert_columns": eff_columns,
                "deleted_rids": deletes,
                "annihilated": int(ghosts.size),
                "touched": touched,
                "compacted": compacted}

    def _compact(self):
        """Drop tombstoned rows; annihilated weight leaves storage."""
        mask = self._weights > 0
        for name in self._data:
            self._data[name] = self._data[name][mask]
        self._rids = self._rids[mask]
        self._weights = _np.ones(self._rids.size, dtype=_np.int8)
        self._dead = 0
        self.compactions += 1
        self._memo = {}
        for index in self._indexes.values():
            index.rebuild()

    def subset(self, name, rids):
        """New table holding the live rows *rids*, under the same RIDs.

        Shard tables built this way share the parent's RID space, so
        their scan results need no mapping back to the parent.
        """
        rid_array = _np.asarray(list(rids), dtype=_np.int64)
        order = _np.argsort(rid_array, kind="stable")
        rid_array = rid_array[order]
        positions = (self._positions_of(rid_array) if rid_array.size
                     else _np.empty(0, dtype=_np.int64))
        columns = {column_name: values[positions]
                   for column_name, values in self._data.items()}
        return ColumnarTable(name, columns, rids=rid_array,
                             compact_threshold=self.compact_threshold)

    def __repr__(self):
        return "<ColumnarTable %s %d rows x %d columns (v%d)>" % (
            self.name, self._live, len(self._data), self.version)


class ColumnarIndex:
    """argsort/searchsorted postings with incremental delta merge.

    Postings are ``(value, rid)`` pairs in value order (RID-ascending
    within one value, because RIDs are assigned monotonically and the
    build sort is stable).  A delta batch merges its pairs at
    ``np.searchsorted`` positions in one ``np.insert`` — no full
    re-sort.  Deleted rows stay in the postings as tombstones and are
    filtered at scan time against the table's live-RID lookup; the
    table drops them wholesale on compaction via :meth:`rebuild`.
    """

    def __init__(self, table, column_name):
        self._table = table
        self.column_name = column_name
        self.rebuilds = 0
        self.delta_merges = 0
        self.rebuild()

    def rebuild(self):
        """Full argsort rebuild from live rows (used at build time and
        after compaction)."""
        mask = self._table._weights > 0
        values = self._table._data[self.column_name][mask]
        rids = self._table._rids[mask]
        order = _np.argsort(values, kind="stable")
        self._keys = values[order].astype(_np.int64)
        self._postings = rids[order]
        self.rebuilds += 1

    def apply_delta(self, values, rids):
        """Merge inserted ``(value, rid)`` pairs into the postings.

        Deletions need no work here — they tombstone through the
        table's weight vector.  ``side="right"`` placement keeps equal
        keys RID-ascending because every delta RID is above every
        existing one.
        """
        if values is None or not len(rids):
            return
        order = _np.lexsort((rids, values))
        values = values[order]
        rids = rids[order]
        positions = _np.searchsorted(self._keys, values, side="right")
        self._keys = _np.insert(self._keys, positions, values)
        self._postings = _np.insert(self._postings, positions, rids)
        self.delta_merges += 1

    def _live(self, rids):
        return rids[self._table._alive[rids]]

    def scan_eq(self, value):
        """RIDs of rows where column == value (sorted int64 ndarray)."""
        start = _np.searchsorted(self._keys, value, side="left")
        end = _np.searchsorted(self._keys, value, side="right")
        return self._live(self._postings[start:end])

    def scan_range(self, low=None, high=None):
        """RIDs where low <= column <= high, born RID-sorted.

        Reads the RID-ordered live view instead of the value-ordered
        postings, so no sort is needed at any size.
        """
        rids, values = self._table._live_view(self.column_name)
        mask = _np.ones(values.size, dtype=bool)
        if low is not None:
            mask &= values >= low
        if high is not None:
            mask &= values <= high
        return rids[mask]

    def scan_in(self, values):
        """RIDs where column is in *values*, born RID-sorted (each
        matching row once, whatever the probe multiplicity)."""
        rids, live_values = self._table._live_view(self.column_name)
        mask = _np.isin(live_values, _np.asarray(list(values),
                                                 dtype=_np.int64))
        return rids[mask]

    def count_eq(self, value):
        """Exact matching-row count (tombstones excluded)."""
        start = _np.searchsorted(self._keys, value, side="left")
        end = _np.searchsorted(self._keys, value, side="right")
        if start == end:
            return 0
        return int(self._table._alive[
            self._postings[start:end]].sum())

    def count_range(self, low=None, high=None):
        """Exact matching-row count for a range probe."""
        keys = self._keys
        start = 0 if low is None else int(
            _np.searchsorted(keys, low, side="left"))
        end = keys.size if high is None else int(
            _np.searchsorted(keys, high, side="right"))
        if start >= end:
            return 0
        return int(self._table._alive[
            self._postings[start:end]].sum())

    def distinct_values(self):
        rids, values = self._table._live_view(self.column_name)
        return _np.unique(values).tolist()

    def __repr__(self):
        return "<ColumnarIndex %s: %d postings, %d merges>" % (
            self.column_name, int(self._keys.size), self.delta_merges)


def delta_mask(predicate, columns):
    """Vectorized predicate evaluation over delta rows.

    *columns* maps column names to equal-length ndarrays (the delta
    batch's inserted rows).  Returns a boolean ndarray — the rows the
    predicate matches — used to maintain standing queries without
    rescanning the table.
    """
    kind = type(predicate).__name__
    if kind == "Eq":
        return columns[predicate.column] == predicate.value
    if kind == "Range":
        values = columns[predicate.column]
        mask = _np.ones(values.size, dtype=bool)
        if predicate.low is not None:
            mask &= values >= predicate.low
        if predicate.high is not None:
            mask &= values <= predicate.high
        return mask
    if kind == "In":
        return _np.isin(columns[predicate.column],
                        _np.asarray(list(predicate.values),
                                    dtype=_np.int64))
    if kind == "And":
        return delta_mask(predicate.left, columns) \
            & delta_mask(predicate.right, columns)
    if kind == "Or":
        return delta_mask(predicate.left, columns) \
            | delta_mask(predicate.right, columns)
    if kind == "AndNot":
        return delta_mask(predicate.left, columns) \
            & ~delta_mask(predicate.right, columns)
    raise TypeError("unknown predicate node %r" % (predicate,))


def signature_affected(sig, touched):
    """Whether a cached predicate signature overlaps a delta's
    touched-value footprint.

    *touched* maps column names to sorted ndarrays of values that some
    inserted or deleted row carried.  A cache entry survives a delta
    exactly when no leaf of its predicate can match any touched value —
    the vectorized membership/overlap checks below.
    """
    kind = sig[0]
    if kind == "eq":
        _kind, column, value = sig
        values = touched.get(column)
        if values is None or not values.size:
            return False
        return bool(_np.isin(value, values, assume_unique=False))
    if kind == "range":
        _kind, column, low, high = sig
        values = touched.get(column)
        if values is None or not values.size:
            return False
        mask = _np.ones(values.size, dtype=bool)
        if low is not None:
            mask &= values >= low
        if high is not None:
            mask &= values <= high
        return bool(mask.any())
    if kind == "in":
        _kind, column, members = sig
        values = touched.get(column)
        if values is None or not values.size:
            return False
        return bool(_np.isin(_np.asarray(list(members),
                                         dtype=_np.int64),
                             values).any())
    # Combinator: ("and"|"or"|"andnot", left_sig, right_sig).
    return signature_affected(sig[1], touched) \
        or signature_affected(sig[2], touched)


def invalidate_footprint(cache, table_id, touched):
    """Drop the entries of a ``(id(table), signature)``-keyed *cache*
    that a delta on that table may have changed; returns the count.

    The invalidation rule of the engine scan cache
    (:meth:`~repro.db.engine.QueryEngine.invalidate`): an entry is
    stale exactly when its signature overlaps the delta's touched-value
    footprint (:func:`signature_affected`).
    """
    stale = [key for key in cache
             if key[0] == table_id and signature_affected(key[1], touched)]
    for key in stale:
        del cache[key]
    return len(stale)
