"""EIS-vs-scalar executor parity.

The same query must produce identical rows and RIDs whether the
processor executes it with the EIS set/sort instructions or with the
scalar fallback kernels — only the cycle counts may differ (and the
EIS must win).
"""

import random

import pytest

from repro.db import (And, AndNot, ColumnarTable, Eq, In, Or, Query,
                      QueryExecutor, Range)

from . import oracle


@pytest.fixture(scope="module")
def table():
    rng = random.Random(47)
    n = 700
    table = ColumnarTable("events", {
        "kind": [rng.randrange(5) for _ in range(n)],
        "zone": [rng.randrange(7) for _ in range(n)],
        "score": [rng.randrange(500) for _ in range(n)],
    })
    for column in ("kind", "zone", "score"):
        table.create_index(column)
    return table


@pytest.fixture(scope="module")
def executors(eis_2lsu_partial, dba_1lsu):
    return {"eis": QueryExecutor(eis_2lsu_partial),
            "scalar": QueryExecutor(dba_1lsu)}


TREE_SHAPES = [
    Eq("kind", 2),
    And(Eq("kind", 1), Range("score", 50, 400)),
    Or(Eq("zone", 3), Eq("zone", 5)),
    AndNot(Range("score", 0, 350), Eq("kind", 0)),
    And(Or(Eq("kind", 1), Eq("kind", 2)),
        AndNot(Range("score", 100, 450), In("zone", (1, 2, 6)))),
    Or(And(Eq("kind", 3), Eq("zone", 0)),
       Or(Range("score", 440, 499), In("kind", (0, 4)))),
]


class TestWhereParity:
    @pytest.mark.parametrize("index", range(len(TREE_SHAPES)))
    def test_same_rids_and_rows(self, executors, table, index):
        predicate = TREE_SHAPES[index]
        rids_eis, stats_eis = executors["eis"].where(table, predicate)
        rids_scalar, stats_scalar = executors["scalar"].where(
            table, predicate)
        rids_eis = rids_eis.tolist()
        assert rids_eis == rids_scalar.tolist() \
            == oracle.where(table, predicate)
        assert table.fetch(rids_eis) == oracle.fetch(table, rids_eis)
        if stats_eis.set_operations and stats_eis.cycles:
            assert stats_eis.cycles < stats_scalar.cycles


class TestOrderByParity:
    @pytest.mark.parametrize("descending", (False, True))
    def test_order_by_directions(self, executors, table, descending):
        predicate = And(Eq("kind", 1), Range("score", 0, 480))
        rids, _stats = executors["eis"].where(table, predicate)
        ordered_eis, sort_eis = executors["eis"].order_by(
            table, rids, "score", descending)
        ordered_scalar, _ = executors["scalar"].order_by(
            table, rids, "score", descending)
        ordered_eis = ordered_eis.tolist()
        assert ordered_eis == ordered_scalar.tolist()
        scores = table.column("score")
        keys = [scores[rid] for rid in ordered_eis]
        assert keys == sorted(keys, reverse=descending)
        # ties break toward ascending RID within equal keys (packing)
        if not descending:
            for first, second in zip(ordered_eis, ordered_eis[1:]):
                if scores[first] == scores[second]:
                    assert first < second

    def test_select_with_projection_and_limit(self, executors, table):
        for descending in (False, True):
            rows_eis, _ = executors["eis"].select(
                table, Or(Eq("zone", 1), Eq("zone", 2)),
                order_by="score", descending=descending,
                columns=("score", "kind"), limit=9)
            rows_scalar, _ = executors["scalar"].select(
                table, Or(Eq("zone", 1), Eq("zone", 2)),
                order_by="score", descending=descending,
                columns=("score", "kind"), limit=9)
            assert rows_eis == rows_scalar
            assert rows_eis == oracle.answer(Query(
                table, Or(Eq("zone", 1), Eq("zone", 2)),
                order_by="score", descending=descending,
                columns=("score", "kind"), limit=9))[1]
            assert len(rows_eis) == 9
            assert all(set(row) == {"score", "kind"}
                       for row in rows_eis)

    def test_full_scan_sort_parity(self, executors, table):
        ordered_eis, _ = executors["eis"].order_by(
            table, list(range(table.row_count)), "score")
        ordered_scalar, _ = executors["scalar"].order_by(
            table, list(range(table.row_count)), "score")
        assert ordered_eis.tolist() == ordered_scalar.tolist()
        assert sorted(ordered_eis) == list(range(table.row_count))
