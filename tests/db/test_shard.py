"""Sharded-engine parity and partitioning unit tests.

The contract under test is ISSUE 8's acceptance bar: a
:class:`~repro.db.shard.ShardedEngine` must return byte-identical RID
lists (and row payloads) to a single :class:`~repro.db.engine.
QueryEngine` for every builtin predicate shape, under every
partitioner kind and both reduce paths (calibrated cost model and pure
ISS).  Edge cases — an empty shard, all rows landing on one shard,
more shards than rows — must degrade to the same answer, and sound
pruning must only ever *skip* work, never change it.
"""

import bisect
import random

import numpy as np
import pytest

from repro.db import (And, AndNot, ColumnarTable, Eq, HashPartitioner, In,
                      Or, Query, QueryEngine, Range, RangePartitioner,
                      ShardedEngine, make_partitioner, partition_table,
                      shard_may_match, skew_ratio)

from . import oracle

ROWS = 360

#: Every builtin predicate node type, alone and composed.
TREE_SHAPES = [
    Eq("kind", 2),
    Range("score", 50, 400),
    In("zone", (1, 3, 6)),
    And(Eq("kind", 1), Range("score", 50, 400)),
    Or(Eq("zone", 3), Eq("zone", 5)),
    AndNot(Range("score", 0, 350), Eq("kind", 0)),
    And(Or(Eq("kind", 1), Eq("kind", 2)),
        AndNot(Range("score", 100, 450), In("zone", (1, 2, 6)))),
    Or(And(Eq("kind", 3), Eq("zone", 0)),
       Or(Range("score", 440, 499), In("kind", (0, 4)))),
]


def build_table(rows=ROWS, seed=47, name="events"):
    rng = random.Random(seed)
    table = ColumnarTable(name, {
        "kind": [rng.randrange(5) for _ in range(rows)],
        "zone": [rng.randrange(7) for _ in range(rows)],
        "score": [rng.randrange(500) for _ in range(rows)],
    })
    for column in ("kind", "zone", "score"):
        table.create_index(column)
    return table


@pytest.fixture(scope="module")
def table():
    return build_table()


@pytest.fixture(scope="module")
def reference(table):
    """Row-oracle answers for every tree shape (the ground truth)."""
    return [oracle.answer(Query(table, shape)) for shape in TREE_SHAPES]


class TestShardedParity:
    """Every shape x {hash, range} x {cost model, ISS} is identical."""

    @pytest.mark.parametrize("partitioner", ("hash", "range"))
    @pytest.mark.parametrize("cost_model", (True, False),
                             ids=("costmodel", "iss"))
    def test_batch_parity(self, table, reference, partitioner,
                          cost_model):
        engine = ShardedEngine(shards=3, partitioner=partitioner,
                               cost_model=cost_model)
        results = engine.execute_batch(
            [Query(table, shape) for shape in TREE_SHAPES])
        for result, (rids, rows) in zip(results, reference):
            assert result.rids == rids
            assert result.rows == rows

    @pytest.mark.parametrize("column", (None, "score"))
    def test_range_partition_column_parity(self, table, reference,
                                           column):
        engine = ShardedEngine(shards=4, partitioner="range",
                               partition_column=column)
        results = engine.execute_batch(
            [Query(table, shape) for shape in TREE_SHAPES])
        assert [r.rids for r in results] == [rids for rids, _ in
                                             reference]

    def test_order_by_and_limit_parity(self, table):
        query = Query(table, And(Eq("kind", 1), Range("score", 0, 480)),
                      order_by="score", limit=10)
        single = QueryEngine().execute(query)
        sharded = ShardedEngine(shards=3).execute(
            Query(table, query.predicate, order_by="score", limit=10))
        assert sharded.rids == single.rids
        assert sharded.rows == single.rows
        assert (sharded.rids, sharded.rows) == oracle.answer(query)

    def test_no_predicate_full_scan_parity(self, table):
        single = QueryEngine().execute(Query(table, None, limit=20))
        sharded = ShardedEngine(shards=3).execute(
            Query(table, None, limit=20))
        assert sharded.rids == single.rids

    def test_workers_mode_parity(self, table, reference):
        engine = ShardedEngine(shards=2)
        try:
            results = engine.execute_batch(
                [Query(table, shape) for shape in TREE_SHAPES],
                workers=2)
        finally:
            engine.shutdown()
        assert [r.rids for r in results] == [rids for rids, _ in
                                             reference]

    def test_makespan_never_exceeds_serial(self, table):
        """Per-query makespan = max shard + gather <= some work bound.

        The modeled makespan must be positive and composed of exactly
        the accounted parts.
        """
        engine = ShardedEngine(shards=3)
        result = engine.execute(
            Query(table, And(Eq("kind", 1), Range("score", 50, 400)),
                  order_by="score"))
        parts = (max(result.shard_cycles) + result.gather_cycles
                 + result.transfer_cycles)
        assert result.makespan_cycles >= parts
        assert result.makespan_cycles > 0


class TestEdgeCases:
    def test_empty_shard(self):
        """A shard that holds zero rows still reduces correctly."""
        table = build_table(rows=5, seed=3, name="tiny")
        engine = ShardedEngine(shards=4, partitioner="range")
        result = engine.execute(Query(table, Range("score", 0, 499)))
        single = QueryEngine().execute(
            Query(table, Range("score", 0, 499)))
        assert result.rids == single.rids

    def test_all_rows_one_shard(self):
        """Hash partitioning on a constant column pins every row."""
        rows = 60
        rng = random.Random(9)
        table = ColumnarTable("const", {
            "kind": [1] * rows,
            "score": [rng.randrange(100) for _ in range(rows)],
        })
        table.create_index("kind")
        table.create_index("score")
        engine = ShardedEngine(shards=4, partitioner="hash",
                               partition_column="kind")
        result = engine.execute(
            Query(table, And(Eq("kind", 1), Range("score", 10, 80))))
        single = QueryEngine().execute(
            Query(table, And(Eq("kind", 1), Range("score", 10, 80))))
        assert result.rids == single.rids
        sizes = [shard.row_count for shard
                 in engine.shards_for(table)]
        assert sorted(sizes) == [0, 0, 0, rows]

    def test_more_shards_than_rows(self):
        table = build_table(rows=3, seed=11, name="micro")
        engine = ShardedEngine(shards=8)
        result = engine.execute(Query(table, Range("score", 0, 499)))
        single = QueryEngine().execute(
            Query(table, Range("score", 0, 499)))
        assert result.rids == single.rids

    def test_empty_result(self, table):
        engine = ShardedEngine(shards=3)
        result = engine.execute(Query(table, Eq("kind", 99)))
        assert result.rids == []
        assert result.rows == []

    def test_single_shard_degenerates(self, table):
        engine = ShardedEngine(shards=1)
        results = engine.execute_batch(
            [Query(table, shape) for shape in TREE_SHAPES])
        single = QueryEngine().execute_batch(
            [Query(table, shape) for shape in TREE_SHAPES])
        assert [r.rids for r in results] == [r.rids for r in single]


class TestPruning:
    def test_skipped_counter_range_partition(self):
        """A narrow range over a range-partitioned column skips shards."""
        rows = 400
        table = ColumnarTable("ordered", {
            "key": list(range(rows)),
            "flag": [rid % 2 for rid in range(rows)],
        })
        table.create_index("key")
        table.create_index("flag")
        engine = ShardedEngine(shards=4, partitioner="range",
                               partition_column="key")
        result = engine.execute(
            Query(table, And(Range("key", 0, 40), Eq("flag", 0))))
        single = QueryEngine().execute(
            Query(table, And(Range("key", 0, 40), Eq("flag", 0))))
        assert result.rids == single.rids
        assert result.skipped_shards == 3
        assert engine.metrics_snapshot()["db.shard.skipped"] == 3

    def test_pruning_never_changes_results(self, table, reference):
        engine = ShardedEngine(shards=6, partitioner="range",
                               partition_column="score")
        results = engine.execute_batch(
            [Query(table, shape) for shape in TREE_SHAPES])
        assert [r.rids for r in results] == [rids for rids, _ in
                                             reference]

    def test_shard_may_match_soundness(self, table):
        """If may-match says no, the shard truly has zero matches."""
        partitioner = RangePartitioner(3, column="score")
        shards = partition_table(table, partitioner)
        engine = QueryEngine()
        for shape in TREE_SHAPES:
            for shard in shards:
                if not shard_may_match(shard, shape):
                    rids, _ = engine.evaluate_predicate(shard, shape)
                    assert rids.tolist() == []


class TestPartitioners:
    def test_partitions_are_exhaustive_and_disjoint(self, table):
        for kind in ("hash", "range"):
            partitioner = make_partitioner(kind, 5)
            shards = partition_table(table, partitioner)
            seen = sorted(rid for shard in shards
                          for rid in shard.all_rids())
            assert seen == list(range(table.row_count))

    def test_global_rids_ascending(self, table):
        """Shards keep the parent's RIDs, in ascending order."""
        for shard in partition_table(table, HashPartitioner(4)):
            rids = shard.all_rids().tolist()
            assert rids == sorted(rids)
            assert shard.fetch(rids) == table.fetch(rids)

    def test_hash_partition_balance(self):
        table = build_table(rows=2000, seed=5, name="big")
        shards = partition_table(table, HashPartitioner(4))
        sizes = [shard.row_count for shard in shards]
        assert skew_ratio(sizes) < 1.25

    def test_range_partition_by_column_orders_values(self, table):
        shards = partition_table(
            table, RangePartitioner(3, column="score"))
        maxima = [max(shard.column("score"))
                  for shard in shards if shard.row_count]
        minima = [min(shard.column("score"))
                  for shard in shards if shard.row_count]
        for upper, lower in zip(maxima, minima[1:]):
            assert upper <= lower

    def test_make_partitioner_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_partitioner("round-robin", 4)

    def test_skew_ratio(self):
        assert skew_ratio([10, 10, 10, 10]) == 1.0
        assert skew_ratio([40, 0, 0, 0]) == 4.0
        assert skew_ratio([]) == 1.0


class TestPartitionedOrderBy:
    """Per-shard sort + EIS merge equals the coordinator serial sort."""

    def queries(self, table):
        return [
            Query(table, Range("score", 0, 480), order_by="score",
                  limit=12),
            Query(table, Eq("kind", 1), order_by="score",
                  descending=True),
            Query(table, Or(Eq("zone", 3), Eq("zone", 5)),
                  order_by="score", descending=True, limit=5),
            Query(table, None, order_by="score", limit=25),
        ]

    def test_matches_serial_sort_and_single_engine(self, table):
        queries = self.queries(table)
        single = QueryEngine().execute_batch(queries)
        partitioned = ShardedEngine(shards=3).execute_batch(queries)
        serial = ShardedEngine(
            shards=3, partitioned_order_by=False).execute_batch(queries)
        for query, fast, slow, ref in zip(queries, partitioned, serial,
                                          single):
            assert fast.rids == ref.rids
            assert slow.rids == ref.rids
            assert fast.rows == ref.rows
            assert (ref.rids, ref.rows) == oracle.answer(query)

    def test_sort_merge_telemetry(self, table):
        engine = ShardedEngine(shards=3)
        engine.execute(Query(table, Range("score", 0, 480),
                             order_by="score"))
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.shard.sort.merges"] > 0
        assert snapshot["db.shard.sort.merge_cycles"] > 0

    def test_sort_cycles_land_on_shards(self, table):
        """Partitioned sorts bill the shards, not the serial tail."""
        query = Query(table, Range("score", 0, 480), order_by="score")
        partitioned = ShardedEngine(shards=3).execute(query)
        serial = ShardedEngine(
            shards=3, partitioned_order_by=False).execute(query)
        assert sum(partitioned.shard_cycles) > sum(serial.shard_cycles)
        assert partitioned.rids == serial.rids


class TestRepeatedBatches:
    """No cross-batch shard memo: the shard engines' scan cache and the
    per-batch CSE are the only reuse, so a repeated batch bills what a
    cold one bills, armed fault injector or not."""

    def test_repeat_batch_bills_like_a_fresh_engine(self, table,
                                                    reference):
        from repro.faults.db import DbFaultInjector
        from repro.faults.plan import FaultPlan

        def served(results):
            return [(r.rids, r.shard_cycles, r.makespan_cycles)
                    for r in results]

        queries = [Query(table, shape) for shape in TREE_SHAPES]
        expected = served(ShardedEngine(shards=3).execute_batch(queries))
        assert [rids for rids, _, _ in expected] \
            == [rids for rids, _ in reference]
        for injector in (None, DbFaultInjector(FaultPlan([]))):
            engine = ShardedEngine(shards=3, fault_injector=injector)
            assert served(engine.execute_batch(queries)) == expected
            assert served(engine.execute_batch(queries)) == expected

    def test_clear_caches_repartitions(self, table):
        engine = ShardedEngine(shards=2)
        before = engine.shards_for(table)
        engine.execute(Query(table, Eq("kind", 2)))
        engine.clear_caches()
        after = engine.shards_for(table)
        assert after is not before
        assert [shard.all_rids().tolist() for shard in after] \
            == [shard.all_rids().tolist() for shard in before]


def _mix32(value):
    """Scalar reference of the hash partitioner's avalanche mixer."""
    value &= 0xFFFFFFFF
    value = ((value ^ (value >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    value = ((value ^ (value >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    return value ^ (value >> 16)


def reference_router(partitioner, table):
    """Per-row scalar ``(rid, row) -> shard`` rule, frozen on *table*:
    ``_mix32 % shards`` for hash, ``bisect`` over equal-depth
    quantiles (values) or contiguous live-row slices (RIDs, later RIDs
    to the last shard) for range."""
    shards, column = partitioner.shards, partitioner.column
    if partitioner.kind == "hash":
        if column is None:
            return lambda rid, row: _mix32(rid) % shards
        return lambda rid, row: _mix32(row[column]) % shards
    if column is not None:
        ordered = sorted(table.column(column))
        bounds = [ordered[(len(ordered) * cut) // shards - 1]
                  for cut in range(1, shards)]
        return lambda rid, row: bisect.bisect_right(bounds, row[column])
    rids = table.all_rids()
    slot = {rid: (position * shards) // len(rids)
            for position, rid in enumerate(rids)}
    return lambda rid, row: slot.get(rid, shards - 1)


class _OverflowPartitioner(HashPartitioner):
    """Sends every RID at or above *first_bad* to shard ``shards``."""

    def __init__(self, shards, first_bad):
        super().__init__(shards)
        self.first_bad = first_bad

    def router(self, table):
        inner = super().router(table)
        return lambda rids, columns: np.where(
            rids >= self.first_bad, self.shards, inner(rids, columns))


class TestRouters:
    """The array router places rows exactly like a per-row scalar
    reference, at partition time and for every delta insert."""

    PARTITIONER_FACTORIES = (
        lambda: HashPartitioner(4),
        lambda: HashPartitioner(4, column="zone"),
        lambda: RangePartitioner(4),
        lambda: RangePartitioner(4, column="score"),
    )

    @staticmethod
    def _assert_placement(table, shards, rule, label):
        rows = dict(zip(table.all_rids(), table.fetch(table.all_rids())))
        for position, shard in enumerate(shards):
            for rid in shard.all_rids():
                assert rule(rid, rows[rid]) == position, label
        assert sorted(rid for shard in shards
                      for rid in shard.all_rids()) == sorted(rows), label

    def test_router_matches_assignment(self, table):
        for factory in self.PARTITIONER_FACTORIES:
            partitioner = factory()
            self._assert_placement(table,
                                   partition_table(table, partitioner),
                                   reference_router(partitioner, table),
                                   partitioner.describe())

    def test_delta_routing_matches_scalar_reference(self):
        from repro.db import DeltaBatch
        from repro.workloads.sets import generate_delta_stream
        initial, specs = generate_delta_stream(
            240, 8, {"kind": 5, "zone": 7, "score": 500},
            inserts_per_batch=30, deletes_per_batch=20, seed=29,
            ghost_batches=(3,))
        for factory in self.PARTITIONER_FACTORIES:
            partitioner = factory()
            table = ColumnarTable("stream", initial)
            for column in initial:
                table.create_index(column)
            rule = reference_router(partitioner, table)
            engine = ShardedEngine(shards=4, partitioner=partitioner)
            self._assert_placement(table, engine.shards_for(table), rule,
                                   partitioner.describe())
            for spec in specs:
                engine.apply_delta(table, DeltaBatch.from_spec(spec))
            self._assert_placement(table, engine.shards_for(table), rule,
                                   partitioner.describe())

    def test_range_rid_router_sends_new_rids_to_last_shard(self,
                                                           table):
        router = RangePartitioner(3).router(table)
        probe = np.asarray([table.rid_limit() + 1000], dtype=np.int64)
        assert router(probe, {}).tolist() == [2]

    def test_range_value_router_is_frozen(self, table):
        """The value router keeps its quantile bounds even if asked
        about values outside the original distribution."""
        router = RangePartitioner(3, column="score").router(table)
        rids = np.asarray([10 ** 6, 10 ** 6], dtype=np.int64)
        scores = np.asarray([0, 499], dtype=np.int64)
        assert router(rids, {"score": scores}).tolist() == [0, 2]

    def test_out_of_range_assignment_is_rejected(self, table):
        from repro.db import DeltaBatch
        with pytest.raises(ValueError, match="assigned to shard 3"):
            partition_table(table, _OverflowPartitioner(3, first_bad=0))
        fresh = build_table(rows=40, seed=3, name="overflow")
        engine = ShardedEngine(shards=3, partitioner=_OverflowPartitioner(
            3, first_bad=fresh.rid_limit()))
        engine.shards_for(fresh)
        with pytest.raises(ValueError, match="assigned to shard 3"):
            engine.apply_delta(fresh, DeltaBatch(
                inserts={"kind": [1], "zone": [2], "score": [3]}))


class TestTelemetry:
    def test_shard_metrics_present(self, table):
        engine = ShardedEngine(shards=2)
        engine.execute_batch(
            [Query(table, shape) for shape in TREE_SHAPES[:3]])
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.shard.queries"] == 3
        assert snapshot["db.shard.shards"] == 2
        assert snapshot["db.shard.makespan_cycles"] > 0
        assert snapshot["db.shard.gather.merges"] > 0
        for index in range(2):
            assert "db.shard.%d.cycles" % index in snapshot
            assert snapshot["db.shard.%d.rows_held" % index] > 0

    def test_makespan_beats_serial_on_fanout(self):
        """On a conjunctive workload the reduce must model a win."""
        table = build_table(rows=4096, seed=13, name="wide")
        queries = [Query(table, And(And(Eq("kind", k),
                                        In("zone", (k, k + 1))),
                                    Range("score", 200, 260)))
                   for k in range(5)]
        single = QueryEngine().execute_batch(queries)
        serial = sum(r.stats.cycles for r in single)
        engine = ShardedEngine(shards=4)
        results = engine.execute_batch(queries)
        makespan = sum(r.makespan_cycles for r in results)
        assert [r.rids for r in results] == [r.rids for r in single]
        assert makespan < serial
