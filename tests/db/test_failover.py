"""Failover primitives and fault-tolerant sharded serving.

The contract under test is ISSUE 9's robustness bar: with a replica
per shard a dead worker is invisible (byte-identical answers via
failover), without replicas the engine *says* it lost a shard (typed
``ShardError`` in strict mode, ``complete=False`` degraded results
otherwise), response corruption is detected by the RID checksum and
retransmitted (never silently merged), and wedged responses are
hedged onto replicas under a modeled-cycle deadline.
"""

import random
import struct
import zlib

import numpy as np
import pytest

from repro.db import (CircuitBreaker, ColumnarTable, Query, QueryEngine,
                      Range, ShardError, ShardedEngine, plan_replicas,
                      rid_checksum)
from repro.db.failover import BREAKER_STATES
from repro.faults.db import (WEDGE_CYCLES, DbFaultInjector,
                             ResponseCorrupt, ResponseDelay, WorkerKill)
from repro.faults.plan import FaultPlan
from repro.supervisor import SuperviseReport, TaskOutcome

ROWS = 240
SHARDS = 4


def build_table(rows=ROWS, seed=31, name="orders"):
    rng = random.Random(seed)
    table = ColumnarTable(name, {
        "status": [rng.randrange(4) for _ in range(rows)],
        "price": [rng.randrange(500) for _ in range(rows)],
    })
    for column in ("status", "price"):
        table.create_index(column)
    return table


def broad_queries(table, count=6):
    """Every query's predicate holds rows on every shard.

    The OR arm keeps the predicate compound, so every shard attempt
    runs an EIS set op and is charged non-zero modeled cycles — the
    deadline/hedge tests calibrate their budgets from those cycles.
    """
    from repro.db import Eq
    return [Query(table, Range("price", 0, 470 - 10 * index)
                  | Eq("status", index % 4))
            for index in range(count)]


def make_injector(*faults):
    return DbFaultInjector(FaultPlan(list(faults)))


@pytest.fixture(scope="module")
def table():
    return build_table()


@pytest.fixture(scope="module")
def reference(table):
    engine = QueryEngine()
    return [result.rids
            for result in engine.execute_batch(broad_queries(table))]


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=4)
        for _ in range(2):
            assert breaker.allow() == (True, False)
            breaker.record(False)
        assert breaker.state == "closed"
        breaker.allow()
        breaker.record(False)
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record(False)
        breaker.record(True)
        breaker.record(False)
        assert breaker.state == "closed"
        breaker.record(False)
        assert breaker.state == "open"

    def test_cooldown_then_half_open_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown=3)
        breaker.record(False)
        assert breaker.state == "open"
        # Refused dispatches count the cooldown down...
        assert breaker.allow() == (False, False)
        assert breaker.allow() == (False, False)
        # ...then exactly one probe is granted.
        assert breaker.allow() == (True, True)
        assert breaker.state == "half_open"
        assert breaker.probes == 1
        # Dispatches racing the in-flight probe stay refused.
        assert breaker.allow() == (False, False)

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1)
        breaker.record(False)
        allowed, probing = breaker.allow()
        assert allowed and probing
        breaker.record(True)
        assert breaker.state == "closed"
        assert breaker.allow() == (True, False)

    def test_probe_failure_reopens_for_a_full_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record(False)
        assert breaker.trips == 1
        breaker.allow()          # cooldown 1 of 2
        breaker.allow()          # probe granted
        breaker.record(False)    # probe failed
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert breaker.allow() == (False, False)  # cooldown restarts
        assert breaker.allow() == (True, True)


# ---------------------------------------------------------------------------
# RID checksum
# ---------------------------------------------------------------------------

class TestRidChecksum:
    def test_empty_is_zero(self):
        assert rid_checksum([]) == 0

    def test_order_sensitive(self):
        assert rid_checksum([1, 2, 3]) != rid_checksum([3, 2, 1])

    def test_detects_every_corruption_mode(self):
        rids = [5, 17, 90, 4096]
        clean = rid_checksum(rids)
        assert rid_checksum(rids[:-1]) != clean           # drop
        assert rid_checksum([5, 17, 90 ^ 8, 4096]) != clean   # flip
        assert rid_checksum(rids + [99999]) != clean      # inject

    def test_ndarray_hashes_like_the_same_list(self):
        rids = [0, 5, 17, 4095, 4096, (1 << 31) + 7]
        # The wire format: CRC-32 over little-endian 32-bit words.
        expected = zlib.crc32(struct.pack("<%dI" % len(rids), *rids))
        assert rid_checksum(rids) == expected
        assert rid_checksum(np.asarray(rids, dtype=np.int64)) == expected
        assert rid_checksum(np.asarray([], dtype=np.int64)) == 0


# ---------------------------------------------------------------------------
# replica placement
# ---------------------------------------------------------------------------

class TestPlanReplicas:
    def test_no_replication_is_empty(self):
        assert plan_replicas([1, 2, 3], 3, 0) == [[], [], []]

    def test_bounds(self):
        with pytest.raises(ValueError):
            plan_replicas([1, 1], 2, 2)   # needs a distinct engine
        with pytest.raises(ValueError):
            plan_replicas([1, 1], 2, -1)
        with pytest.raises(ValueError):
            plan_replicas([1, 1, 1], 2, 1)  # load vector mismatch

    def test_peer_placement_never_self_or_duplicate(self):
        placement = plan_replicas([4, 3, 2, 1], 4, 3)
        for shard, hosts in enumerate(placement):
            assert hosts == [(shard + rank) % 4 for rank in (1, 2, 3)]
            assert shard not in hosts
            assert len(set(hosts)) == len(hosts)

    def test_budget_protects_hottest_shards_first(self):
        # Hot order by load: shard 1, then 2, 3, 0.  With budget 5 the
        # first replica round covers everyone (hottest first) and only
        # shard 1 gets a second copy.
        placement = plan_replicas([10, 50, 30, 20], 4, 2, budget=5)
        assert placement[1] == [2, 3]
        assert placement[2] == [3]
        assert placement[3] == [0]
        assert placement[0] == [1]

    def test_budget_smaller_than_one_round(self):
        placement = plan_replicas([10, 50, 30, 20], 4, 1, budget=2)
        assert placement == [[], [2], [3], []]


# ---------------------------------------------------------------------------
# typed shard error
# ---------------------------------------------------------------------------

class TestShardError:
    def test_carries_context(self):
        error = ShardError("shard 2 failed",
                           outcomes=[{"host": 2, "status": "killed"}],
                           survivors=[1, 2, 3], shard=2, query_index=7)
        assert isinstance(error, RuntimeError)
        assert error.outcomes[0]["status"] == "killed"
        assert error.survivors == [1, 2, 3]
        assert error.shard == 2 and error.query_index == 7
        assert "shard=2" in repr(error) and "query=7" in repr(error)


# ---------------------------------------------------------------------------
# engine-level failover
# ---------------------------------------------------------------------------

class TestEngineFailover:
    def test_defaults_are_fault_free_and_complete(self, table,
                                                  reference):
        engine = ShardedEngine(shards=SHARDS)
        results = engine.execute_batch(broad_queries(table))
        for result, expected in zip(results, reference):
            assert result.rids == expected
            assert result.complete
            assert result.shards_failed == ()
            assert result.failovers == 0
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.fault.failovers"] == 0
        assert snapshot["db.shard.replication"] == 0

    def test_replica_hosts_accessor(self, table):
        engine = ShardedEngine(shards=SHARDS, replication=2)
        hosts = engine.replica_hosts(table, 1)
        assert hosts == [2, 3]
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.shard.1.replicas"] == 2

    def test_kill_with_replica_is_masked(self, table, reference):
        engine = ShardedEngine(shards=SHARDS, replication=1,
                               fault_injector=make_injector(
                                   WorkerKill(0, 0)))
        results = engine.execute_batch(broad_queries(table))
        for result, expected in zip(results, reference):
            assert result.rids == expected
            assert result.complete
        assert sum(result.failovers for result in results) \
            >= len(results)
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.fault.kills"] >= 1
        assert snapshot["db.fault.failovers"] >= 1
        assert snapshot["db.fault.shard_failures"] == 0

    def test_kill_without_replica_degrades_when_not_strict(
            self, table, reference):
        engine = ShardedEngine(shards=SHARDS, replication=0,
                               strict=False,
                               fault_injector=make_injector(
                                   WorkerKill(0, 0)))
        results = engine.execute_batch(broad_queries(table))
        for result, expected in zip(results, reference):
            assert not result.complete
            assert result.shards_failed == (0,)
            assert set(result.rids) < set(expected)
            assert "DEGRADED" in repr(result)
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.fault.degraded"] == len(results)
        assert snapshot["db.fault.shard_failures"] == len(results)

    def test_kill_without_replica_raises_typed_error_when_strict(
            self, table):
        engine = ShardedEngine(shards=SHARDS, replication=0,
                               strict=True,
                               fault_injector=make_injector(
                                   WorkerKill(0, 0)))
        with pytest.raises(ShardError) as excinfo:
            engine.execute(broad_queries(table)[0])
        error = excinfo.value
        assert error.shard == 0
        assert error.survivors  # healthy shards' RIDs kept
        assert any(attempt["status"] == "killed"
                   for attempt in error.outcomes)

    def test_corruption_is_detected_and_retransmitted(self, table,
                                                      reference):
        engine = ShardedEngine(shards=SHARDS,
                               fault_injector=make_injector(
                                   ResponseCorrupt(0, 0, "flip", 2, 5)))
        result = engine.execute(broad_queries(table)[0])
        assert result.rids == reference[0]
        assert result.complete
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.fault.corruptions"] == 1
        assert snapshot["db.fault.corruptions_detected"] == 1
        assert snapshot["db.fault.retransmits"] == 1

    @pytest.mark.parametrize("mode", ["drop", "flip", "inject"])
    def test_every_corruption_mode_never_merges_silently(
            self, table, reference, mode):
        engine = ShardedEngine(shards=SHARDS,
                               fault_injector=make_injector(
                                   ResponseCorrupt(1, 0, mode, 7, 11)))
        result = engine.execute(broad_queries(table)[0])
        assert result.rids == reference[0]

    def _calibrated_deadline(self, table):
        baseline = ShardedEngine(shards=SHARDS)
        results = baseline.execute_batch(broad_queries(table))
        return 8 * max(1, max(max(result.shard_cycles)
                              for result in results))

    def test_wedged_response_is_hedged_onto_replica(self, table,
                                                    reference):
        deadline = self._calibrated_deadline(table)
        engine = ShardedEngine(shards=SHARDS, replication=1,
                               deadline_cycles=deadline,
                               fault_injector=make_injector(
                                   ResponseDelay(2, 0, WEDGE_CYCLES)))
        results = engine.execute_batch(broad_queries(table))
        for result, expected in zip(results, reference):
            assert result.rids == expected
            assert result.complete
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.fault.delays"] == 1
        assert snapshot["db.fault.hedges"] >= 1
        assert snapshot["db.fault.failovers"] >= 1

    def test_wedge_without_replica_misses_deadline_and_degrades(
            self, table, reference):
        deadline = self._calibrated_deadline(table)
        engine = ShardedEngine(shards=SHARDS, replication=0,
                               strict=False, deadline_cycles=deadline,
                               fault_injector=make_injector(
                                   ResponseDelay(2, 0, WEDGE_CYCLES)))
        result = engine.execute_batch(broad_queries(table))[0]
        assert not result.complete
        assert result.shards_failed == (2,)
        assert set(result.rids) < set(reference[0])
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.fault.deadline_misses"] >= 1

    def test_small_delay_within_deadline_is_absorbed(self, table,
                                                     reference):
        deadline = self._calibrated_deadline(table)
        engine = ShardedEngine(shards=SHARDS, replication=0,
                               deadline_cycles=deadline,
                               fault_injector=make_injector(
                                   ResponseDelay(1, 0, 3)))
        result = engine.execute(broad_queries(table)[0])
        assert result.rids == reference[0]
        assert result.complete

    def test_breaker_trips_and_short_circuits_dead_primary(
            self, table, reference):
        engine = ShardedEngine(shards=SHARDS, replication=1,
                               breaker_threshold=2, breaker_cooldown=3,
                               fault_injector=make_injector(
                                   WorkerKill(0, 0)))
        results = engine.execute_batch(broad_queries(table))
        for result, expected in zip(results, reference):
            assert result.rids == expected
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.shard.0.breaker.trips"] >= 1
        assert snapshot["db.shard.0.breaker.short_circuits"] >= 1
        assert snapshot["db.shard.0.breaker.state"] \
            in range(len(BREAKER_STATES))
        assert engine.breakers[0].state in BREAKER_STATES

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedEngine(shards=4, replication=4)
        with pytest.raises(ValueError):
            ShardedEngine(shards=4, replication=-1)
        with pytest.raises(ValueError):
            ShardedEngine(shards=4, hedge_fraction=1.5)


# ---------------------------------------------------------------------------
# pooled scatter failure paths
# ---------------------------------------------------------------------------

class _FakePool:
    """Stands in for the SupervisorPool: returns a canned report."""

    def __init__(self, report):
        self.report = report
        self.calls = 0

    def run(self, tasks, timeout=None, retries=1):
        self.calls += 1
        return self.report

    def shutdown(self):
        pass


def _failed_report(count):
    outcomes = []
    for position in range(count):
        outcome = TaskOutcome("shard-%d" % position)
        outcome.status = "failed"
        outcome.error = "RuntimeError: worker exploded"
        outcome.attempts = 2
        outcomes.append(outcome)
    return SuperviseReport(outcomes, snapshot=None)


class TestPooledFailures:
    def test_strict_without_replicas_raises_with_survivors(self,
                                                           table):
        engine = ShardedEngine(shards=SHARDS, replication=0,
                               strict=True)
        engine._pool = _FakePool(_failed_report(SHARDS))
        queries = broad_queries(table)
        with pytest.raises(ShardError) as excinfo:
            engine.execute_batch(queries, workers=2)
        error = excinfo.value
        assert len(error.outcomes) == SHARDS
        assert all(not outcome.ok for outcome in error.outcomes)
        # The survivors grid keeps its batch x shards shape.
        assert len(error.survivors) == len(queries)
        assert all(len(row) == SHARDS for row in error.survivors)

    def test_replicas_recover_pool_failures_inline(self, table,
                                                   reference):
        engine = ShardedEngine(shards=SHARDS, replication=1,
                               strict=True)
        engine._pool = _FakePool(_failed_report(SHARDS))
        results = engine.execute_batch(broad_queries(table), workers=2)
        for result, expected in zip(results, reference):
            assert result.rids == expected
            assert result.complete
            assert result.failovers >= 1
        snapshot = engine.metrics_snapshot()
        assert snapshot["db.fault.pool_failures"] >= 1
        assert snapshot["db.fault.failovers"] >= 1

    def test_non_strict_degrades_on_total_pool_loss(self, table):
        engine = ShardedEngine(shards=SHARDS, replication=0,
                               strict=False)
        engine._pool = _FakePool(_failed_report(SHARDS))
        results = engine.execute_batch(broad_queries(table), workers=2)
        for result in results:
            assert not result.complete
            assert result.rids == []
            assert set(result.shards_failed) == set(range(SHARDS))
