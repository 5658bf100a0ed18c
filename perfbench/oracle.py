"""Brute-force answer check, independent of the engine.

:class:`RowModel` keeps its own copy of a table's live rows (RID and
value arrays that apply delta specs by themselves) and answers
a query by evaluating the WHERE tree as boolean masks over every row,
then sorting, limiting and projecting.  Nothing here touches the
program's indexes, caches, cost model or storage, so an answer the
engine got wrong cannot agree with it by sharing a code path.
"""

import numpy as np

from repro.db.predicates import Combinator, Eq, In, Range

#: The packing budget behind PLAN007: ORDER BY is refused once the
#: table's RID space is wider than this.
ORDER_BY_RID_SPAN = 1 << 12


class CheckFailed(Exception):
    """The program returned a wrong answer."""


class RowModel:
    """Live rows of one table, maintained from the benchmark's inputs."""

    def __init__(self, columns):
        self.names = list(columns)
        self.values = np.array([columns[name] for name in self.names],
                               dtype=np.int64).T
        self.rids = np.arange(len(self.values), dtype=np.int64)
        self.next_rid = len(self.values)

    def apply(self, spec):
        """Apply one ``{"insert": ..., "delete_rids": ...}`` spec.

        New rows take the next RIDs in order; a delete of a row the
        same batch inserted removes it again (it still used its RID).
        """
        inserts = spec.get("insert") or {}
        count = len(inserts[self.names[0]]) if inserts else 0
        if count:
            rows = np.array([inserts[name] for name in self.names],
                            dtype=np.int64).T
            self.values = np.concatenate([self.values, rows])
            self.rids = np.concatenate([self.rids, np.arange(
                self.next_rid, self.next_rid + count, dtype=np.int64)])
            self.next_rid += count
        deletes = np.asarray(spec.get("delete_rids", ()), dtype=np.int64)
        if deletes.size:
            keep = ~np.isin(self.rids, deletes)
            if int(keep.size - keep.sum()) != np.unique(deletes).size:
                raise CheckFailed("delta deletes a row that is not live")
            self.values = self.values[keep]
            self.rids = self.rids[keep]

    def answer(self, query):
        """``(rids, rows)`` the query must return."""
        rids = self.rids
        columns = {name: self.values[:, position]
                   for position, name in enumerate(self.names)}
        if query.predicate is None:
            mask = np.ones(rids.size, dtype=bool)
        else:
            mask = _mask(query.predicate, columns)
        selected = np.flatnonzero(mask)
        if query.order_by is not None:
            keys = columns[query.order_by][selected]
            # ascending (key, rid); DESC is the exact reverse, so ties
            # come out in descending RID order
            selected = selected[np.lexsort((rids[selected], keys))]
            if query.descending:
                selected = selected[::-1]
        if query.limit is not None:
            selected = selected[:query.limit]
        names = list(query.columns or self.names)
        rows = [dict(zip(names, values)) for values in zip(
            *(columns[name][selected].tolist() for name in names))]
        return rids[selected].tolist(), rows

    def refuses(self, query):
        """Whether the current program must refuse *query* (PLAN007)."""
        return query.order_by is not None \
            and self.next_rid > ORDER_BY_RID_SPAN


def _mask(predicate, columns):
    if isinstance(predicate, Eq):
        return columns[predicate.column] == predicate.value
    if isinstance(predicate, Range):
        values = columns[predicate.column]
        mask = np.ones(values.size, dtype=bool)
        if predicate.low is not None:
            mask &= values >= predicate.low
        if predicate.high is not None:
            mask &= values <= predicate.high
        return mask
    if isinstance(predicate, In):
        return np.isin(columns[predicate.column],
                       np.array(predicate.values, dtype=np.int64))
    if isinstance(predicate, Combinator):
        left = _mask(predicate.left, columns)
        right = _mask(predicate.right, columns)
        if predicate.operation == "intersection":
            return left & right
        if predicate.operation == "union":
            return left | right
        if predicate.operation == "difference":
            return left & ~right
    raise CheckFailed("oracle cannot evaluate %r" % (predicate,))


def check_answer(model, query, rids, rows, where):
    """Raise :class:`CheckFailed` unless the answer matches *model*."""
    want_rids, want_rows = model.answer(query)
    got_rids = [int(rid) for rid in rids]
    if got_rids != want_rids:
        raise CheckFailed("%s: %r returned %d RIDs, expected %d (first "
                          "difference at position %d)"
                          % (where, query, len(got_rids), len(want_rids),
                             _first_difference(got_rids, want_rids)))
    if rows != want_rows:
        raise CheckFailed("%s: %r fetched values differ from the live "
                          "columns" % (where, query))


def _first_difference(left, right):
    for position, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return position
    return min(len(left), len(right))
