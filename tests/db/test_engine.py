"""Tests for the batched query-serving engine."""

import random

import pytest

from repro.db import (And, ColumnarTable, DeltaBatch, Eq, In, Or, Query,
                      QueryEngine, Range, signature)
from repro.db.planlint import PlanError

from . import oracle


@pytest.fixture(scope="module")
def table():
    rng = random.Random(31)
    n = 600
    table = ColumnarTable("orders", {
        "status": [rng.randrange(4) for _ in range(n)],
        "region": [rng.randrange(6) for _ in range(n)],
        "price": [rng.randrange(800) for _ in range(n)],
    })
    for column in ("status", "region", "price"):
        table.create_index(column)
    return table


@pytest.fixture(scope="module")
def predicate():
    return (Eq("status", 1) & Range("price", 50, 600)) | Eq("region", 2)


def make_engine(processor, **kwargs):
    kwargs.setdefault("processor", processor)
    return QueryEngine(**kwargs)


class TestSignature:
    def test_structurally_equal_trees_share_signature(self):
        left = And(Eq("a", 1), Range("b", 2, 3))
        right = And(Eq("a", 1), Range("b", 2, 3))
        assert signature(left) == signature(right)

    def test_different_trees_differ(self):
        assert signature(Eq("a", 1)) != signature(Eq("a", 2))
        assert signature(And(Eq("a", 1), Eq("b", 2))) \
            != signature(Or(Eq("a", 1), Eq("b", 2)))
        assert signature(In("a", (1, 2))) != signature(In("a", (1, 3)))

    def test_in_values_are_a_set(self):
        """Probe order and multiplicity do not change an IN."""
        assert In("a", (3, 1, 3, 2)).values == (1, 2, 3)
        assert signature(In("a", (1, 2))) == signature(In("a", (2, 1)))
        assert signature(In("a", (1, 1))) == signature(In("a", [1]))


class TestEngine:
    def test_single_query_matches_executor(self, eis_2lsu_partial,
                                           table, predicate):
        engine = make_engine(eis_2lsu_partial)
        result = engine.execute(Query(table, predicate,
                                      order_by="price", limit=10))
        rows, stats = engine.executor.select(
            table, predicate, order_by="price", limit=10)
        assert result.rows == rows
        assert result.stats.cycles == stats.cycles

    def test_cost_model_and_iss_engines_agree(self, eis_2lsu_partial,
                                              table, predicate):
        queries = [Query(table, predicate, order_by="price"),
                   Query(table, Eq("status", 0), limit=5),
                   Query(table, None, order_by="price",
                         descending=True, limit=3)]
        fast = make_engine(eis_2lsu_partial)
        slow = make_engine(eis_2lsu_partial, cost_model=False)
        for query, fast_result, slow_result in zip(
                queries, fast.execute_batch(queries),
                slow.execute_batch(queries)):
            assert (fast_result.rids, fast_result.rows) \
                == oracle.answer(query)
            assert fast_result.rids == slow_result.rids
            assert fast_result.rows == slow_result.rows
            assert fast_result.stats.cycles == slow_result.stats.cycles
        snapshot = fast.metrics_snapshot()
        assert snapshot["db.engine.cycles_iss"] == 0
        assert snapshot["db.engine.cycles_costmodel"] > 0
        slow_snapshot = slow.metrics_snapshot()
        assert slow_snapshot["db.engine.cycles_costmodel"] == 0
        assert slow_snapshot["db.engine.cycles_iss"] > 0

    def test_scan_cache_hits_across_batches(self, eis_2lsu_partial,
                                            table):
        engine = make_engine(eis_2lsu_partial)
        query = Query(table, Eq("status", 1))
        first = engine.execute(query)
        misses = engine.metrics_snapshot()["db.engine.scan_cache.misses"]
        second = engine.execute(Query(table, Eq("status", 1)))
        snapshot = engine.metrics_snapshot()
        assert second.rids == first.rids
        assert snapshot["db.engine.scan_cache.hits"] == 1
        assert snapshot["db.engine.scan_cache.misses"] == misses
        engine.clear_caches()
        engine.execute(query)
        assert engine.metrics_snapshot()[
            "db.engine.scan_cache.misses"] == misses + 1

    def test_cached_scan_results_are_isolated_copies(
            self, eis_2lsu_partial, table):
        engine = make_engine(eis_2lsu_partial)
        first = engine.execute(Query(table, Eq("region", 2)))
        first.rids.append(999999)  # caller mutates its copy
        second = engine.execute(Query(table, Eq("region", 2)))
        assert 999999 not in second.rids

    def test_cse_reuses_identical_subtrees_within_batch(
            self, eis_2lsu_partial, table, predicate):
        engine = make_engine(eis_2lsu_partial)
        results = engine.execute_batch(
            [Query(table, predicate), Query(table, predicate),
             Query(table, predicate)])
        assert results[0].rids == results[1].rids == results[2].rids
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.cse.hits"] == 2
        assert snapshot["db.engine.cycles_saved"] > 0
        # reused queries are not charged the subtree's cycles again
        assert results[1].stats.set_operations == 0

    def test_cse_does_not_leak_across_batches(self, eis_2lsu_partial,
                                              table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch([Query(table, predicate)])
        engine.execute_batch([Query(table, predicate)])
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.cse.hits"] == 0

    def test_parallel_batch_matches_serial(self, eis_2lsu_partial,
                                           table, predicate):
        # distinct queries: per-query cycle attribution with CSE
        # depends on in-chunk order, so duplicates are tested elsewhere
        queries = [Query(table, predicate, order_by="price", limit=7),
                   Query(table, Eq("status", 2), order_by="price"),
                   Query(table, Range("price", 10, 300)),
                   Query(table, In("region", (0, 4)), limit=2)]
        engine = make_engine(eis_2lsu_partial)
        serial = engine.execute_batch(queries)
        parallel = engine.execute_batch(queries, workers=2)
        for serial_result, parallel_result in zip(serial, parallel):
            assert parallel_result.rids == serial_result.rids
            assert parallel_result.rows == serial_result.rows
            assert parallel_result.stats.cycles \
                == serial_result.stats.cycles

    def test_missing_index_is_reported(self, eis_2lsu_partial):
        bare = ColumnarTable("bare", {"a": [1, 2, 3]})
        engine = make_engine(eis_2lsu_partial)
        with pytest.raises(KeyError, match="secondary index"):
            engine.execute(Query(bare, Eq("a", 1)))

    def test_queries_counter_and_qps_gauge(self, eis_2lsu_partial,
                                           table):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch([Query(table, Eq("status", 0)),
                              Query(table, Eq("status", 3))])
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.queries"] == 2
        assert snapshot["db.engine.batches"] == 1
        assert snapshot["db.engine.last_batch_qps"] > 0


class TestDuplicateInProbes:
    """``In(c, (v, v))`` is ``Eq(c, v)``: each matching row once."""

    @pytest.mark.parametrize("cost_model", (True, False),
                             ids=("costmodel", "iss"))
    def test_answers_equal_eq(self, eis_2lsu_partial, table,
                              cost_model):
        engine = make_engine(eis_2lsu_partial, cost_model=cost_model)
        pairs = [(In("region", (2, 2)), Eq("region", 2)),
                 (In("region", (1, 1)) | Eq("status", 2),
                  Eq("region", 1) | Eq("status", 2)),
                 (Range("price", 100, 500) - In("region", (3, 3)),
                  Range("price", 100, 500) - Eq("region", 3)),
                 (In("region", (1, 1, 2)) | Eq("status", 2),
                  In("region", (1, 2)) | Eq("status", 2))]
        for duplicated, reference in pairs:
            got = engine.execute(Query(table, duplicated))
            want = engine.execute(Query(table, reference))
            assert got.rids == want.rids
            assert got.rows == want.rows
            assert got.rids == oracle.where(table, reference)


class TestReadOnlyRidVectors:
    """Scan-cache and CSE entries are handed out uncopied, so they are
    read-only: a caller cannot corrupt what later queries read."""

    def test_cached_scan_cannot_be_mutated(self, eis_2lsu_partial,
                                           table):
        engine = make_engine(eis_2lsu_partial)
        leaf = Eq("status", 1)
        first = engine.execute(Query(table, leaf))
        rids, _stats = engine.evaluate_predicate(table, leaf)
        assert engine.metrics_snapshot()["db.engine.scan_cache.hits"] \
            == 1
        with pytest.raises(ValueError):
            rids[0] = 10 ** 6
        with pytest.raises(ValueError):
            rids.sort()
        again = engine.execute(Query(table, leaf))
        assert again.rids == first.rids == oracle.where(table, leaf)

    def test_cse_result_cannot_be_mutated(self, eis_2lsu_partial, table,
                                          predicate):
        engine = make_engine(eis_2lsu_partial)
        cse = {}
        rids, _stats = engine.evaluate_predicate(table, predicate,
                                                 cse=cse)
        with pytest.raises(ValueError):
            rids[:] = 0
        reused, _stats = engine.evaluate_predicate(table, predicate,
                                                   cse=cse)
        assert reused.tolist() == oracle.where(table, predicate)

    def test_results_hold_plain_ints(self, eis_2lsu_partial, table,
                                     predicate):
        engine = make_engine(eis_2lsu_partial)
        for query in (Query(table, predicate),
                      Query(table, predicate, order_by="price",
                            descending=True, limit=7),
                      Query(table, None, limit=4),
                      Query(table, Eq("status", 1) - Range("price", 0, 800))):
            result = engine.execute(query)
            assert isinstance(result.rids, list)
            assert all(type(rid) is int for rid in result.rids)
            assert (result.rids, result.rows) == oracle.answer(query)


class TestRefusalIndependentOfWorkers:
    """A plan refusal does not depend on the worker count."""

    @pytest.mark.parametrize("workers", (1, 2))
    def test_order_by_refused_after_replace_all_churn(
            self, eis_2lsu_partial, workers):
        rows = 100
        rng = random.Random(5)

        def fresh_rows():
            return {"k": [rng.randrange(50) for _ in range(rows)]}

        table = ColumnarTable("churned", fresh_rows())
        table.create_index("k")
        for _ in range(41):  # replace every row, 41 times
            table.apply_delta(DeltaBatch(inserts=fresh_rows(),
                                         delete_rids=table.all_rids()))
        assert table.row_count == rows
        assert table.rid_limit() == 4200
        engine = make_engine(eis_2lsu_partial)
        queries = [Query(table, Range("k", 0, 20), order_by="k"),
                   Query(table, Eq("k", 3), order_by="k", limit=5)]
        with pytest.raises(PlanError, match="PLAN007"):
            engine.execute_batch(queries, workers=workers)


class TestWorkerMetricMerge:
    """Worker-pool serving no longer loses its subprocess metrics."""

    def queries(self, table, predicate):
        return [Query(table, predicate, order_by="price", limit=7),
                Query(table, Eq("status", 2), order_by="price"),
                Query(table, Range("price", 10, 300)),
                Query(table, In("region", (0, 4)), limit=2)]

    def test_worker_metrics_namespaced_into_parent(
            self, eis_2lsu_partial, table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch(self.queries(table, predicate), workers=2)
        snapshot = engine.metrics_snapshot()
        worker_queries = [snapshot[name] for name in snapshot
                          if name.startswith("db.engine.worker.")
                          and name.endswith(".queries")]
        assert len(worker_queries) == 2
        assert sum(worker_queries) == 4
        # ...without double-counting the parent's own accounting
        assert snapshot["db.engine.queries"] == 4

    def test_worker_cache_economics_roll_up(self, eis_2lsu_partial,
                                            table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch(self.queries(table, predicate), workers=2)
        snapshot = engine.metrics_snapshot()
        worker_misses = sum(
            snapshot[name] for name in snapshot
            if name.startswith("db.engine.worker.")
            and name.endswith("scan_cache.misses"))
        assert worker_misses > 0
        # aggregated totals cover the workers' scan-cache traffic
        assert snapshot["db.engine.scan_cache.misses"] == worker_misses

    def test_supervisor_counters_ride_along(self, eis_2lsu_partial,
                                            table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch(self.queries(table, predicate), workers=2)
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.supervisor.submitted"] == 2
        assert snapshot["db.engine.supervisor.ok"] == 2
        assert snapshot["db.engine.workers"] == 2

    def test_workers_gauge_resets_between_batches(
            self, eis_2lsu_partial, table, predicate):
        engine = make_engine(eis_2lsu_partial)
        engine.execute_batch(self.queries(table, predicate), workers=2)
        assert engine.metrics_snapshot()["db.engine.queue_depth"] == 0


class TestBenchHarness:
    def test_run_bench_reports_parity(self):
        from repro.db.bench import run_bench
        report = run_bench(rows=120, queries=6, repeat=1)
        assert report["rid_parity"] is True
        assert report["cycle_parity"] is True
        assert report["speedup"] > 0
        assert report["queries"] == 6

    def test_run_bench_traced_pass(self, tmp_path):
        from repro.db.bench import run_bench
        from repro.telemetry.tracer import validate_chrome_trace
        import json
        path = str(tmp_path / "trace.json")
        report = run_bench(rows=120, queries=6, repeat=1,
                           workers=2, trace_out=path)
        assert report["trace"]["processes"] == 3
        validate_chrome_trace(json.load(open(path)))
