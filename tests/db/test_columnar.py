"""Columnar storage differential suite.

The contract under test: the columnar struct-of-arrays layer answers
exactly what the brute-force row filter in :mod:`tests.db.oracle`
answers — same RID lists and rows for every predicate shape, sharded
and unsharded, under the cost model and pure ISS — while its delta
path (incremental index merges, delta-aware scan caches, standing
queries) stays equivalent to rebuilding everything from scratch after
every batch, including ghost annihilation and compaction crossings.
"""

import random

import numpy as np
import pytest

from repro.db import (ColumnarTable, DeltaBatch, Eq, In, Query,
                      QueryEngine, Range, ShardedEngine, delta_mask,
                      signature, signature_affected)
from repro.workloads.sets import generate_delta_stream

from . import oracle

#: Column domains shared by every table in this suite.
COLUMNS = {"status": 4, "region": 8, "price": 600}

#: Every builtin predicate node type, alone and composed.
SHAPES = [
    Eq("status", 1),
    Range("price", 100, 400),
    In("region", (1, 3, 5)),
    Eq("status", 2) & Range("price", 50, 500),
    Eq("status", 0) | Eq("region", 4),
    (Eq("status", 1) & Range("price", 0, 300)) - In("region", (2, 6)),
    (Range("price", 100, 500) | Eq("status", 3))
    & In("region", (0, 1, 2, 3)),
]


def make_columns(rows, seed):
    rng = random.Random(seed)
    return {name: [rng.randrange(cardinality) for _ in range(rows)]
            for name, cardinality in COLUMNS.items()}


def indexed(table):
    for name in COLUMNS:
        table.create_index(name)
    return table


def build_table(rows=400, seed=11):
    return indexed(ColumnarTable("orders", make_columns(rows, seed)))


def rebuilt_copy(table):
    """A from-scratch columnar table with the same live rows and the
    same (sparse) global RIDs — the delta path's ground truth."""
    live = {name: table.column(name) for name in COLUMNS}
    return indexed(ColumnarTable(table.name, live,
                                 rids=table.all_rids()))


def queries_for(table):
    return [Query(table, shape) for shape in SHAPES] + [
        Query(table, SHAPES[3], order_by="price", limit=10),
        Query(table, SHAPES[1], order_by="price", descending=True,
              limit=7),
        Query(table, None, order_by="price", limit=15),
    ]


@pytest.fixture(scope="module")
def delta_stream():
    return generate_delta_stream(
        300, 10, COLUMNS, inserts_per_batch=40, deletes_per_batch=25,
        seed=5, ghost_batches=(2, 7))


class TestDeltaBatch:
    def test_rejects_ragged_inserts(self):
        with pytest.raises(ValueError, match="lengths differ"):
            DeltaBatch(inserts={"a": [1, 2], "b": [3]})

    def test_rejects_duplicate_deletes(self):
        with pytest.raises(ValueError, match="Z-set"):
            DeltaBatch(delete_rids=[4, 4])

    def test_rejects_unsorted_insert_rids(self):
        with pytest.raises(ValueError, match="ascending"):
            DeltaBatch(inserts={"a": [1, 2]}, insert_rids=[9, 3])

    def test_from_spec_roundtrip(self):
        batch = DeltaBatch.from_spec(
            {"insert": {"a": [7]}, "delete_rids": [2]})
        assert batch.insert_count == 1
        assert batch.delete_rids == [2]


class TestIndexScanParity:
    """ColumnarIndex answers == the row oracle's answers, all probes."""

    @pytest.fixture(scope="class")
    def table(self):
        return build_table()

    def test_scan_eq(self, table):
        for value in range(-1, COLUMNS["status"] + 1):
            assert table.index("status").scan_eq(value).tolist() \
                == oracle.where(table, Eq("status", value))

    def test_scan_range(self, table):
        probes = [(0, 599), (100, 400), (None, 250), (250, None),
                  (None, None), (400, 100), (598, 598)]
        for low, high in probes:
            assert table.index("price").scan_range(low, high).tolist() \
                == oracle.where(table, Range("price", low, high))

    def test_scan_in_with_duplicate_probes(self, table):
        """Each matching row once, whatever the probe order or
        multiplicity."""
        for probe in [(1, 3, 5), (5, 3, 1), (2, 2), (), (9, 11)]:
            assert table.index("region").scan_in(probe).tolist() \
                == oracle.where(table, In("region", probe))

    def test_counts_and_distinct(self, table):
        for value in range(COLUMNS["status"]):
            assert table.index("status").count_eq(value) \
                == len(oracle.where(table, Eq("status", value)))
        assert table.index("price").count_range(100, 400) \
            == len(oracle.where(table, Range("price", 100, 400)))
        assert table.index("region").distinct_values() \
            == sorted(set(table.column("region")))

    def test_fetch_parity(self, table):
        rids = [0, 5, 17, 399]
        assert table.fetch(rids) == oracle.fetch(table, rids)
        assert table.fetch([], ["price"]) == []

    def test_fetch_dead_rid_raises(self, table):
        with pytest.raises(KeyError, match="no live row"):
            table.fetch([10 ** 6])


class TestEngineParity:
    """Full engine byte-parity: RIDs, rows and modeled cycles."""

    @pytest.mark.parametrize("cost_model", (True, False),
                             ids=("costmodel", "iss"))
    def test_unsharded(self, eis_2lsu_partial, cost_model):
        table = build_table()
        engine = QueryEngine(processor=eis_2lsu_partial,
                             cost_model=cost_model)
        iss_engine = QueryEngine(processor=eis_2lsu_partial,
                                 cost_model=False)
        queries = queries_for(table)
        for query, result, iss_result in zip(
                queries, engine.execute_batch(queries),
                iss_engine.execute_batch(queries)):
            assert (result.rids, result.rows) == oracle.answer(query)
            assert result.stats.cycles == iss_result.stats.cycles

    @pytest.mark.parametrize("partitioner,column",
                             [("hash", None), ("hash", "status"),
                              ("range", "price")])
    def test_sharded(self, partitioner, column):
        table = build_table(rows=240, seed=23)
        engine = ShardedEngine(shards=3, partitioner=partitioner,
                               partition_column=column)
        queries = queries_for(table)
        for query, result in zip(queries, engine.execute_batch(queries)):
            assert (result.rids, result.rows) == oracle.answer(query)

    def test_workers_mode_on_sparse_rid_space(self, delta_stream):
        """Worker subprocesses serve the sparse RID space itself:
        same RIDs, rows and modeled cycles as in-process serving."""
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        for spec in specs[:4]:
            table.apply_delta(DeltaBatch.from_spec(spec))
        engine = QueryEngine()
        queries = queries_for(table)
        serial = engine.execute_batch(queries)
        parallel = engine.execute_batch(queries, workers=2)
        for query, one, other in zip(queries, parallel, serial):
            assert (one.rids, one.rows) == oracle.answer(query)
            assert one.rids == other.rids
            assert one.rows == other.rows
            assert one.stats.cycles == other.stats.cycles


class TestDeltaEquivalence:
    """Incremental maintenance == rebuild-from-scratch, every batch."""

    def test_stream_matches_rebuild_and_row_reference(
            self, eis_2lsu_partial, delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = QueryEngine(processor=eis_2lsu_partial)
        for spec in specs:
            engine.apply_delta(table, DeltaBatch.from_spec(spec))
            fresh = rebuilt_copy(table)
            fresh_engine = QueryEngine(processor=eis_2lsu_partial)
            results = engine.execute_batch(queries_for(table))
            expected = fresh_engine.execute_batch(queries_for(fresh))
            for query, result, reference in zip(queries_for(table),
                                                results, expected):
                assert result.rids == reference.rids
                assert result.rows == reference.rows
                assert (result.rids, result.rows) == oracle.answer(query)
        assert table.rid_limit() == 300 + 10 * 40
        assert table.index("price").delta_merges > 0

    def test_ghost_rows_never_observable(self):
        table = indexed(ColumnarTable("t", make_columns(50, 3)))
        before = table.all_rids().tolist()
        batch = DeltaBatch(
            inserts={"status": [1, 2], "region": [0, 1],
                     "price": [10, 20]},
            delete_rids=[50, 51])
        outcome = table.apply_delta(batch)
        assert outcome["annihilated"] == 2
        assert len(outcome["insert_rids"]) == 0
        assert len(outcome["deleted_rids"]) == 0
        assert table.all_rids().tolist() == before
        # ...but the annihilated rows still consumed RID space.
        assert table.rid_limit() == 52
        assert table.index("status").scan_eq(1).tolist() == [
            rid for rid in before
            if table.fetch([rid])[0]["status"] == 1]

    def test_compaction_preserves_rids_and_results(self):
        table = indexed(ColumnarTable("t", make_columns(80, 9),
                                      compact_threshold=0.2))
        rng = random.Random(17)
        live = list(range(80))
        while len(live) > 30:
            victims = sorted(rng.sample(live, 10))
            table.apply_delta(DeltaBatch(delete_rids=victims))
            live = [rid for rid in live if rid not in set(victims)]
            assert table.all_rids().tolist() == live
            fresh = rebuilt_copy(table)
            for shape in SHAPES:
                column = shape.column if hasattr(shape, "column") \
                    else "price"
                assert table.index(column).scan_range(0, 599).tolist() \
                    == fresh.index(column).scan_range(0, 599).tolist()
        assert table.compactions > 0

    def test_delete_of_missing_rid_raises(self):
        table = indexed(ColumnarTable("t", make_columns(10, 1)))
        table.apply_delta(DeltaBatch(delete_rids=[4]))
        with pytest.raises(KeyError, match="no live row"):
            table.apply_delta(DeltaBatch(delete_rids=[4]))

    def test_partial_row_insert_rejected(self):
        table = indexed(ColumnarTable("t", make_columns(10, 1)))
        with pytest.raises(ValueError, match="full rows"):
            table.apply_delta(DeltaBatch(inserts={"status": [1]}))


class TestScanCacheUnderDeltas:
    """The delta-aware scan cache is never stale, yet still hits."""

    def test_differential_never_stale(self, eis_2lsu_partial,
                                      delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = QueryEngine(processor=eis_2lsu_partial)
        queries = [Query(table, shape) for shape in SHAPES]
        for spec in specs:
            engine.execute_batch(queries)  # warm / re-warm the cache
            engine.apply_delta(table, DeltaBatch.from_spec(spec))
            results = engine.execute_batch(queries)
            expected = QueryEngine(
                processor=eis_2lsu_partial).execute_batch(queries)
            assert [r.rids for r in results] \
                == [r.rids for r in expected]
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.scan_cache.hits"] > 0
        assert snapshot["db.engine.scan_cache.invalidated"] > 0
        assert snapshot["db.engine.deltas"] == len(specs)
        assert snapshot["db.engine.delta_rows"] > 0

    def test_untouched_entries_survive(self, eis_2lsu_partial):
        table = indexed(ColumnarTable("t", {
            "status": [0, 1, 2, 3], "region": [0, 1, 2, 3],
            "price": [10, 20, 30, 40]}))
        engine = QueryEngine(processor=eis_2lsu_partial)
        hot = Query(table, Eq("status", 0))
        cold = Query(table, Eq("status", 3))
        engine.execute_batch([hot, cold])
        outcome = engine.apply_delta(table, DeltaBatch(
            inserts={"status": [0], "region": [5], "price": [50]}))
        assert outcome["invalidated"] == 1
        hits_before = engine.metrics_snapshot()[
            "db.engine.scan_cache.hits"]
        results = engine.execute_batch([hot, cold])
        assert results[0].rids == [0, 4]
        assert results[1].rids == [3]
        assert engine.metrics_snapshot()["db.engine.scan_cache.hits"] \
            == hits_before + 1


class TestStandingQueries:
    def test_standing_tracks_full_reevaluation(self, eis_2lsu_partial,
                                               delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = QueryEngine(processor=eis_2lsu_partial)
        standings = [engine.register_standing(Query(table, shape))
                     for shape in SHAPES]
        for spec in specs:
            outcome = engine.apply_delta(table,
                                         DeltaBatch.from_spec(spec))
            assert len(outcome["updates"]) == len(standings)
            fresh_engine = QueryEngine(processor=eis_2lsu_partial)
            for standing, shape in zip(standings, SHAPES):
                expected, _stats = fresh_engine.evaluate_predicate(
                    table, shape)
                assert standing.rids == expected.tolist()
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.engine.standing.registered"] == len(SHAPES)
        assert snapshot["db.engine.standing.updates"] > 0

    def test_updates_are_output_deltas(self, eis_2lsu_partial):
        table = indexed(ColumnarTable("t", {
            "status": [0, 0, 1], "region": [0, 1, 2],
            "price": [5, 6, 7]}))
        engine = QueryEngine(processor=eis_2lsu_partial)
        standing = engine.register_standing(
            Query(table, Eq("status", 0)))
        assert standing.rids == [0, 1]
        outcome = engine.apply_delta(table, DeltaBatch(
            inserts={"status": [0, 1], "region": [3, 4],
                     "price": [8, 9]},
            delete_rids=[0]))
        update = outcome["updates"][0]
        assert update.added == [3]
        assert update.removed == [0]
        assert standing.rids == [1, 3]

    def test_rejects_non_where_shapes(self, eis_2lsu_partial):
        table = indexed(ColumnarTable("t", make_columns(10, 4)))
        engine = QueryEngine(processor=eis_2lsu_partial)
        with pytest.raises(ValueError, match="pure WHERE"):
            engine.register_standing(
                Query(table, Eq("status", 0), order_by="price"))


class TestShardedDeltas:
    """Delta routing through frozen routers keeps shards consistent."""

    @pytest.mark.parametrize("partitioner,column",
                             [("hash", None), ("hash", "status"),
                              ("range", "price"), ("range", None)])
    def test_sharded_stream_parity(self, eis_2lsu_partial, partitioner,
                                   column, delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = ShardedEngine(shards=3, partitioner=partitioner,
                               partition_column=column)
        queries = [Query(table, shape) for shape in SHAPES]
        for spec in specs[:6]:
            engine.execute_batch(queries)  # warm the scan caches
            engine.apply_delta(table, DeltaBatch.from_spec(spec))
            results = engine.execute_batch(queries)
            expected = QueryEngine(
                processor=eis_2lsu_partial).execute_batch(queries)
            assert [r.rids for r in results] \
                == [r.rids for r in expected]
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.shard.deltas"] == 6
        hits = sum(snapshot["db.shard.%d.engine.scan_cache.hits"
                            % position] for position in range(3))
        assert hits > 0
        invalidated = sum(
            snapshot["db.shard.%d.engine.scan_cache.invalidated"
                     % position] for position in range(3))
        assert invalidated > 0

    def test_shard_tables_share_global_rid_space(self, delta_stream):
        initial, specs = delta_stream
        table = indexed(ColumnarTable("orders", initial))
        engine = ShardedEngine(shards=3)
        shards = engine.shards_for(table)
        held = sorted(rid for shard in shards
                      for rid in shard.all_rids())
        assert held == table.all_rids().tolist()
        engine.apply_delta(table, DeltaBatch.from_spec(specs[0]))
        held = sorted(rid for shard in engine.shards_for(table)
                      for rid in shard.all_rids())
        assert held == table.all_rids().tolist()


class TestDeltaHelpers:
    def test_delta_mask_matches_scans(self):
        columns = {name: np.asarray(values, dtype=np.int64)
                   for name, values in make_columns(120, 8).items()}
        table = indexed(ColumnarTable("t", {
            name: values.tolist() for name, values in columns.items()}))
        engine = QueryEngine()
        for shape in SHAPES:
            mask = delta_mask(shape, columns)
            expected, _stats = engine.evaluate_predicate(table, shape)
            assert np.flatnonzero(mask).tolist() == expected.tolist()

    def test_signature_affected_overlap_rules(self):
        touched = {"price": np.asarray([100, 250]),
                   "status": np.asarray([2])}
        assert signature_affected(signature(Eq("status", 2)), touched)
        assert not signature_affected(signature(Eq("status", 1)),
                                      touched)
        assert signature_affected(signature(Range("price", 200, 300)),
                                  touched)
        assert not signature_affected(
            signature(Range("price", 300, 400)), touched)
        assert not signature_affected(signature(In("region", (1, 2))),
                                      touched)
        assert signature_affected(
            signature(Eq("status", 1) | Eq("status", 2)), touched)


class TestCostModelOperands:
    """The public cost-model API accepts ndarray operands and
    returns the same int64 ndarray values as for list operands."""

    def test_set_operation_ndarray_equals_list(self, eis_2lsu_partial):
        from repro.core.costmodel import CostModel
        model = CostModel()
        set_a = sorted(random.Random(3).sample(range(4000), 300))
        set_b = sorted(random.Random(4).sample(range(4000), 250))
        for which in ("intersection", "union", "difference"):
            expected = model.set_operation(eis_2lsu_partial, which,
                                           set_a, set_b)
            got = model.set_operation(
                eis_2lsu_partial, which,
                np.asarray(set_a, dtype=np.int64),
                np.asarray(set_b, dtype=np.int64))
            assert _plain(got) == _plain(expected)
            assert got[0].dtype == np.int64

    def test_merge_sort_ndarray_equals_list(self, eis_2lsu_partial):
        from repro.core.costmodel import CostModel
        model = CostModel()
        values = random.Random(5).sample(range(4000), 200)
        expected = model.merge_sort(eis_2lsu_partial, values)
        got = model.merge_sort(eis_2lsu_partial,
                               np.asarray(values, dtype=np.int64))
        assert _plain(got) == _plain(expected)
        assert _plain(model.merge_sort(eis_2lsu_partial,
                                       np.asarray([], dtype=np.int64))) \
            == _plain(model.merge_sort(eis_2lsu_partial, []))


def _plain(modeled):
    """A cost-model ``(values, cycles, source)`` with list values."""
    values, cycles, source = modeled
    return values.tolist(), cycles, source
