"""Query-plan verification (PLAN001..PLAN009)."""

import warnings

import pytest

from repro.db import (And, ColumnarTable, Eq, In, Or, Query, QueryEngine,
                      Range)
from repro.db.planlint import (PlanError, lint_query,
                               lint_query_or_raise)
from repro.db.predicates import AndNot


@pytest.fixture(scope="module")
def table():
    table = ColumnarTable("orders", {
        "status": [1, 2, 3, 0],
        "price": [10, 20, 30, 40],
    })
    table.create_index("status")
    table.create_index("price")
    return table


def plan_codes(query, engine=None):
    return {d.code for d in lint_query(query, engine=engine)}


class TestPlanChecks:
    def test_valid_query_is_clean(self, table):
        query = Query(table, Eq("status", 1) & Range("price", 5, 35),
                      order_by="price", limit=2)
        assert plan_codes(query) == set()

    def test_plan001_unknown_column(self, table):
        assert "PLAN001" in plan_codes(Query(table, Eq("ghost", 1)))
        assert "PLAN001" in plan_codes(Query(table, order_by="ghost"))
        assert "PLAN001" in plan_codes(
            Query(table, columns=["status", "ghost"]))

    def test_plan002_missing_index(self):
        bare = ColumnarTable("bare", {"a": [1, 2, 3]})
        report = lint_query(Query(bare, Eq("a", 1)))
        found = report.by_code("PLAN002")
        assert len(found) == 1
        assert "secondary index" in found[0].message

    def test_plan003_provably_empty_leaves(self, table):
        assert "PLAN003" in plan_codes(
            Query(table, Range("price", 30, 10)))
        assert "PLAN003" in plan_codes(Query(table, In("price", ())))
        assert "PLAN003" in plan_codes(
            Query(table, Eq("price", 0xFFFFFFFF)))

    def test_plan004_unsatisfiable_conjunction(self, table):
        query = Query(table, And(Range("price", 0, 10),
                                 Range("price", 20, 30)))
        assert "PLAN004" in plan_codes(query)
        # The same ranges OR'd are satisfiable.
        query = Query(table, Or(Range("price", 0, 10),
                                Range("price", 20, 30)))
        assert "PLAN004" not in plan_codes(query)

    def test_plan004_disjoint_eq_and_in(self, table):
        query = Query(table, And(Eq("status", 1),
                                 In("status", (2, 3))))
        assert "PLAN004" in plan_codes(query)

    def test_plan004_andnot_self_cancellation(self, table):
        query = Query(table, AndNot(Eq("status", 1), Eq("status", 1)))
        assert "PLAN004" in plan_codes(query)

    def test_plan005_trivially_true_range(self, table):
        assert "PLAN005" in plan_codes(
            Query(table, Range("price", None, None)))

    def test_plan006_duplicate_subtree(self, table):
        query = Query(table, Or(Eq("status", 1), Eq("status", 1)))
        assert "PLAN006" in plan_codes(query)

    def test_plan007_order_by_beyond_rid_budget(self):
        big = ColumnarTable("big", {"a": list(range(5000))})
        big.create_index("a")
        query = Query(big, Eq("a", 1), order_by="a")
        assert "PLAN007" in plan_codes(query)

    def test_plan009_non_positive_limit(self, table):
        assert "PLAN009" in plan_codes(
            Query(table, Eq("status", 1), limit=0))


class TestEnforcement:
    def test_errors_raise_plan_error(self, table):
        with pytest.raises(PlanError):
            lint_query_or_raise(Query(table, Eq("ghost", 1)))

    def test_plan_error_is_a_readable_key_error(self):
        bare = ColumnarTable("bare", {"a": [1]})
        with pytest.raises(KeyError, match="secondary index"):
            lint_query_or_raise(Query(bare, Eq("a", 1)))

    def test_warnings_do_not_raise(self, table):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lint_query_or_raise(Query(table, Range("price", 30, 10)))
        assert any("PLAN003" in str(w.message) for w in caught)

    def test_warn_only_escape_hatch(self, table, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_WARN_ONLY", "1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lint_query_or_raise(Query(table, Eq("ghost", 1)))
        assert any("PLAN001" in str(w.message) for w in caught)


class TestEngineAdmission:
    def test_engine_rejects_unknown_column(self, eis_2lsu_partial,
                                           table):
        engine = QueryEngine(processor=eis_2lsu_partial)
        with pytest.raises(PlanError):
            engine.execute(Query(table, Eq("ghost", 1)))

    def test_engine_rejects_in_batch_worker_path(self,
                                                 eis_2lsu_partial,
                                                 table):
        engine = QueryEngine(processor=eis_2lsu_partial)
        with pytest.raises(PlanError):
            engine.execute_batch([Query(table, Eq("status", 1)),
                                  Query(table, Eq("ghost", 1))])

    def test_engine_admits_clean_queries(self, eis_2lsu_partial,
                                         table):
        engine = QueryEngine(processor=eis_2lsu_partial)
        result = engine.execute(Query(table, Eq("status", 1)))
        assert result.rows

    def test_demo_queries_have_no_warnings(self):
        from repro.db.bench import build_demo_table, demo_queries
        demo = build_demo_table()
        for query in demo_queries(demo):
            report = lint_query(query)
            assert len(report.at_least("warning")) == 0, report.format()
