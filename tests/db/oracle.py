"""Brute-force row filter: the differential oracle of the db suites.

Walks a table's live rows one at a time in RID order and applies the
query's meaning directly — Eq/Range/In tests per row, AND/OR/ANDNOT as
boolean logic, ORDER BY as a (key, RID) sort reversed for DESC, then
LIMIT and projection — with no index, no set kernel and no packing.
"""

from repro.db import And, AndNot, Eq, In, Or, Range


def live_rows(table):
    """``(rid, row dict)`` for every live row, in RID order."""
    names = list(table.column_names)
    columns = zip(*(table.column(name) for name in names))
    return [(rid, dict(zip(names, values)))
            for rid, values in zip(table.all_rids(), columns)]


def matches(predicate, row):
    if predicate is None:
        return True
    if isinstance(predicate, Eq):
        return row[predicate.column] == predicate.value
    if isinstance(predicate, Range):
        value = row[predicate.column]
        return (predicate.low is None or predicate.low <= value) \
            and (predicate.high is None or value <= predicate.high)
    if isinstance(predicate, In):
        return row[predicate.column] in predicate.values
    left = matches(predicate.left, row)
    right = matches(predicate.right, row)
    if isinstance(predicate, And):
        return left and right
    if isinstance(predicate, Or):
        return left or right
    if isinstance(predicate, AndNot):
        return left and not right
    raise TypeError("oracle cannot evaluate %r" % (predicate,))


def where(table, predicate):
    """Sorted RIDs of the live rows *predicate* selects."""
    return [rid for rid, row in live_rows(table)
            if matches(predicate, row)]


def fetch(table, rids, columns=None):
    """Row dicts for *rids*, projected to *columns* (default all)."""
    rows = dict(live_rows(table))
    names = list(columns or table.column_names)
    return [{name: rows[rid][name] for name in names} for rid in rids]


def answer(query):
    """``(rids, rows)`` a :class:`~repro.db.engine.Query` must return."""
    selected = [(rid, row) for rid, row in live_rows(query.table)
                if matches(query.predicate, row)]
    if query.order_by is not None:
        selected.sort(key=lambda item: (item[1][query.order_by],
                                        item[0]))
        if query.descending:
            selected.reverse()
    if query.limit is not None:
        selected = selected[:query.limit]
    names = list(query.columns or query.table.column_names)
    return ([rid for rid, _row in selected],
            [{name: row[name] for name in names}
             for _rid, row in selected])
