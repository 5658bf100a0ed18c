"""Tests for the columnar engine layer (tables, predicates, executor)."""

import random

import pytest

from repro.db import (And, AndNot, ColumnarTable, Eq, In, Or, Query,
                      QueryExecutor, Range, leaves, validate_indexes)

from . import oracle


@pytest.fixture(scope="module")
def table():
    rng = random.Random(11)
    n = 1200
    table = ColumnarTable("orders", {
        "status": [rng.randrange(4) for _ in range(n)],
        "region": [rng.randrange(6) for _ in range(n)],
        "priority": [rng.randrange(10) for _ in range(n)],
        "amount": [rng.randrange(50_000) for _ in range(n)],
    })
    for column in ("status", "region", "priority"):
        table.create_index(column)
    return table


class TestTable:
    def test_column_lengths_validated(self):
        with pytest.raises(ValueError, match="lengths"):
            ColumnarTable("bad", {"a": [1, 2], "b": [1]})

    def test_value_range_validated(self):
        with pytest.raises(ValueError, match="32-bit"):
            ColumnarTable("bad", {"a": [0xFFFFFFFF]})

    def test_fetch_projects_columns(self, table):
        rows = table.fetch([0, 1], ["status"])
        assert set(rows[0]) == {"status"}

    def test_missing_column(self, table):
        with pytest.raises(KeyError):
            table.column("nope")

    def test_index_required_before_use(self, table):
        with pytest.raises(KeyError, match="no index"):
            table.index("amount")


class TestSecondaryIndex:
    """The secondary index of a column (a ``ColumnarIndex``)."""

    def test_eq_scan_matches_column(self, table):
        rids = table.index("status").scan_eq(2)
        assert rids.tolist() == oracle.where(table, Eq("status", 2))

    def test_range_scan_inclusive(self, table):
        rids = table.index("priority").scan_range(3, 5)
        assert rids.tolist() == oracle.where(table,
                                             Range("priority", 3, 5))

    def test_open_ended_ranges(self, table):
        low_only = table.index("priority").scan_range(low=8)
        assert low_only.tolist() == oracle.where(table,
                                                 Range("priority", 8))
        high_only = table.index("priority").scan_range(high=1)
        assert high_only.tolist() == oracle.where(
            table, Range("priority", None, 1))

    def test_in_scan(self, table):
        rids = table.index("region").scan_in([0, 5])
        assert rids.tolist() == oracle.where(table,
                                             In("region", (0, 5)))

    def test_missing_value(self, table):
        assert table.index("status").scan_eq(99).tolist() == []

    def test_counts_match_scans(self, table):
        index = table.index("priority")
        for value in range(-1, 11):
            assert index.count_eq(value) == len(index.scan_eq(value))
        for low, high in ((3, 5), (None, 2), (7, None), (None, None),
                          (6, 2)):
            assert index.count_range(low, high) \
                == len(index.scan_range(low, high))

    def test_distinct_values(self, table):
        assert table.index("region").distinct_values() \
            == sorted(set(table.column("region")))


class TestPredicates:
    def test_operator_sugar(self):
        predicate = (Eq("a", 1) & Range("b", 0, 5)) | In("c", [1])
        assert isinstance(predicate, Or)
        assert isinstance(predicate.left, And)
        assert [leaf.column for leaf in leaves(predicate)] \
            == ["a", "b", "c"]

    def test_validate_indexes(self, table):
        with pytest.raises(KeyError, match="amount"):
            validate_indexes(Eq("amount", 3), table)


@pytest.fixture(scope="module", params=["DBA_2LSU_EIS", "DBA_1LSU"],
                ids=["eis", "scalar"])
def executor(request):
    from repro.configs.catalog import build_processor
    return QueryExecutor(build_processor(request.param))


class TestWhere:
    def test_conjunction(self, table, executor):
        predicate = Eq("status", 1) & Eq("region", 2)
        rids, stats = executor.where(table, predicate)
        assert rids.tolist() == oracle.where(table, predicate)
        assert stats.set_operations == 1
        assert stats.index_scans == 2
        assert stats.cycles > 0

    def test_disjunction(self, table, executor):
        predicate = Eq("status", 0) | Eq("status", 3)
        rids, _stats = executor.where(table, predicate)
        assert rids.tolist() == oracle.where(table, predicate)

    def test_andnot(self, table, executor):
        predicate = AndNot(Range("priority", 5, 9), Eq("region", 1))
        rids, _stats = executor.where(table, predicate)
        assert rids.tolist() == oracle.where(table, predicate)

    def test_nested_tree(self, table, executor):
        predicate = (Eq("status", 1) & Range("priority", 5, 9)) \
            | In("region", [2, 3])
        rids, stats = executor.where(table, predicate)
        assert rids.tolist() == oracle.where(table, predicate)
        assert stats.set_operations == 2

    def test_empty_result(self, table, executor):
        rids, _stats = executor.where(table,
                                      Eq("status", 1) & Eq("status", 2))
        assert rids.tolist() == []


class TestOrderByAndSelect:
    def test_order_by_sorts_by_key(self, table, executor):
        rids, stats = executor.order_by(
            table, list(range(table.row_count)), "amount")
        assert rids.tolist() \
            == oracle.answer(Query(table, order_by="amount"))[0]
        assert stats.sort_operations == 1

    def test_order_by_descending(self, table, executor):
        rids, _stats = executor.order_by(table, [0, 1, 2, 3, 4],
                                         "amount", descending=True)
        amounts = [table.column("amount")[rid] for rid in rids]
        assert amounts == sorted(amounts, reverse=True)

    def test_full_select(self, table, executor):
        rows, stats = executor.select(
            table, predicate=Eq("status", 2), order_by="amount",
            limit=10, columns=["amount", "status"])
        assert rows == oracle.answer(Query(
            table, Eq("status", 2), order_by="amount", limit=10,
            columns=["amount", "status"]))[1]
        assert stats.index_scans == 1

    def test_select_without_predicate(self, table, executor):
        rows, _stats = executor.select(table, order_by="amount",
                                       limit=3)
        assert len(rows) == 3

    def test_order_by_key_width_guard(self, executor):
        wide = ColumnarTable("wide", {"key": [1 << 20]})
        with pytest.raises(ValueError, match="dictionary"):
            executor.order_by(wide, [0], "key")

    def test_order_by_row_count_guard(self, executor):
        big = ColumnarTable("big", {"key": [0] * 5000})
        with pytest.raises(ValueError, match="4096"):
            executor.order_by(big, list(range(5000)), "key")

    def test_empty_rid_list(self, table, executor):
        rids, stats = executor.order_by(table, [], "amount")
        assert rids.tolist() == []
        assert stats.cycles == 0


class TestEisScalarAgreement:
    def test_both_executors_agree(self, table):
        from repro.configs.catalog import build_processor
        eis = QueryExecutor(build_processor("DBA_2LSU_EIS"))
        scalar = QueryExecutor(build_processor("DBA_1LSU"))
        predicate = (Range("priority", 2, 7) & Eq("region", 4)) \
            | Eq("status", 0)
        eis_rids, eis_stats = eis.where(table, predicate)
        scalar_rids, scalar_stats = scalar.where(table, predicate)
        assert eis_rids.tolist() == scalar_rids.tolist() \
            == oracle.where(table, predicate)
        assert eis_stats.cycles < scalar_stats.cycles  # acceleration
