"""Sharded multi-core query serving with EIS merge as the reduce step.

The paper's Section 5.4 iso-area argument — spend one x86 die's area
on N small database processors — is answered elsewhere with a
closed-form area model (``experiments/iso_area.py``).
:class:`ShardedEngine` makes it a running system: a table is hash- or
range-partitioned (:mod:`repro.db.partition`) across N shard
:class:`~repro.db.engine.QueryEngine` instances, each query's WHERE
tree is *scattered* to every shard that may hold matching rows, and
the per-shard RID lists are *gathered* by folding them through the EIS
``union`` kernel on the coordinator — so even the reduce step runs on
modeled hardware and is charged modeled cycles.

Timing model (per query):

``makespan = max(shard WHERE cycles) + gather transfer + gather merge
+ coordinator ORDER BY``

Shards run concurrently in the modeled machine, so their WHERE cycles
combine as a *max*; the gather (interconnect bursts of 4-byte RIDs
into the coordinator, then the union fold) and the ORDER BY tail are
serial.  Inter-shard traffic is charged to the same
:class:`~repro.cpu.interconnect.Interconnect` model the prefetcher
uses (``db.shard.gather.*``).

Result parity with the single-engine path is structural: partitions
are disjoint and exhaustive sub-tables that keep the parent's RIDs, so
the union fold of per-shard sorted RID lists is exactly the single
engine's sorted WHERE result; the coordinator then runs the identical
ORDER BY / LIMIT / fetch tail on the full table.
``tests/db/test_shard.py`` enforces byte-identical RID output across
every builtin predicate shape.

Fault tolerance (docs/SHARDING.md):

- **Replicas** — with ``replication=R`` each shard's rows are also
  hosted on R peer engines (:func:`~repro.db.partition.plan_replicas`,
  hottest shards first under a budget), so a dead primary is served by
  a replica with byte-identical results.
- **Deadlines + hedging** — a per-query ``deadline_cycles`` budget in
  *modeled* cycles; an attempt straggling past ``hedge_fraction`` of
  the budget triggers a hedged dispatch to the next replica, and the
  earlier completion wins.
- **Circuit breakers** — per-shard consecutive-failure breakers
  (``db.shard.<i>.breaker.*``) short-circuit a dead primary straight
  to its replicas, with a half-open probe after a cooldown.
- **Degraded mode** — with ``strict=False`` a shard that fails every
  host yields a *typed partial answer*: the query's
  :class:`ShardedResult` carries ``complete=False`` plus the failed
  positions instead of raising.  ``strict=True`` (the default)
  preserves fail-fast behavior via :class:`~repro.db.failover.ShardError`,
  which still carries per-shard outcomes and surviving results.
- **Checksummed responses** — every RID list crossing the response
  channel is guarded by :func:`~repro.db.failover.rid_checksum`;
  corruption is detected and retransmitted, never silently merged.

Process-parallel mode (``execute_batch(..., workers=N)``) scatters
per-shard evaluation to a persistent crash-isolated
:class:`~repro.supervisor.SupervisorPool`; the in-process mode stays
the default (the *modeled* concurrency is what the experiments
measure, and it is deterministic).
"""

import time
from collections import namedtuple

import numpy as _np

from ..core.costmodel import CostModel
from ..cpu.interconnect import Interconnect
from ..supervisor import SupervisorPool, Task
from ..telemetry.registry import MetricsRegistry
from .columnar import DeltaBatch
from .engine import QueryEngine, QueryResult, _table_from_spec, _table_spec
from .executor import RID_BITS, QueryStats, _merge_stats
from .failover import (BREAKER_STATES, CircuitBreaker, ShardError,
                       rid_checksum)
from .partition import (make_partitioner, partition_table,
                        plan_replicas, route, shard_may_match,
                        skew_ratio)
from .planlint import lint_query_or_raise

#: Bytes one RID occupies on the wire (the paper's 32-bit element).
RID_BYTES = 4

#: ``db.fault.*`` counter names the engine maintains.
FAULT_COUNTERS = ("kills", "pool_failures", "delays", "delay_cycles",
                  "corruptions", "corruptions_detected", "retransmits",
                  "failovers", "hedges", "deadline_misses", "degraded",
                  "shard_failures")

#: Scatter-entry / prefetch-cell sentinels.
_SKIPPED = ("skipped",)


class _PoolFailure:
    """Prefetch-cell sentinel: this shard's worker task failed."""

    __slots__ = ()

    def __repr__(self):
        return "<pool-failed>"


_POOL_FAILED = _PoolFailure()


class _Pruned:
    """Prefetch-cell sentinel: shard pruned before dispatch."""

    __slots__ = ()

    def __repr__(self):
        return "<pruned>"


_PRUNED = _Pruned()


#: One parent table's sharding, built once by
#: :meth:`ShardedEngine.shards_for`: the pinned parent table, its shard
#: sub-tables, the replica placement (``plan_replicas``) and the frozen
#: ``Partitioner.router`` that places delta inserts.
_Partition = namedtuple("_Partition", "table shards replicas router")


class ShardedResult(QueryResult):
    """A :class:`QueryResult` plus the scatter/gather timing detail."""

    __slots__ = ("shard_cycles", "makespan_cycles", "gather_cycles",
                 "transfer_cycles", "skipped_shards", "complete",
                 "shards_failed", "failovers")

    def __init__(self, rows, rids, stats, shard_cycles,
                 makespan_cycles, gather_cycles, transfer_cycles,
                 skipped_shards, complete=True, shards_failed=(),
                 failovers=0):
        super().__init__(rows, rids, stats)
        #: Modeled WHERE cycles per shard (0 for skipped shards).
        self.shard_cycles = shard_cycles
        #: Modeled wall-clock of this query on the sharded machine.
        self.makespan_cycles = makespan_cycles
        #: EIS union-fold cycles of the gather reduce.
        self.gather_cycles = gather_cycles
        #: Interconnect cycles moving per-shard RID lists.
        self.transfer_cycles = transfer_cycles
        #: Shards pruned without dispatch (``db.shard.skipped``).
        self.skipped_shards = skipped_shards
        #: ``False`` means a degraded answer: one or more shards
        #: failed every host and their rows are missing from ``rids``.
        self.complete = complete
        #: Positions of the shards that failed (empty when complete).
        self.shards_failed = tuple(shards_failed)
        #: Attempts served by a non-primary host for this query.
        self.failovers = failovers

    def __repr__(self):
        state = "" if self.complete \
            else " DEGRADED(missing %s)" % (list(self.shards_failed),)
        return ("<ShardedResult %d rows, %d makespan cycles, "
                "%d shards skipped%s>" % (len(self.rows),
                                          self.makespan_cycles,
                                          self.skipped_shards, state))


class ShardedEngine:
    """Scatter/gather query serving over N partitioned shard engines.

    Parameters
    ----------
    shards: number of shard workers (each a full
        :class:`~repro.db.engine.QueryEngine` on its own partition).
    partitioner: ``"hash"`` / ``"range"`` (see
        :func:`repro.db.partition.make_partitioner`) or a built
        :class:`~repro.db.partition.Partitioner`.
    partition_column: partition on a column's values instead of RIDs —
        hash partitioning co-locates equal values, range partitioning
        cuts equal-depth value ranges.
    cost_model: as for :class:`QueryEngine` — ``True`` (calibrated
        fast path, serving default), ``False`` (pure ISS, experiment
        ground truth) or a :class:`~repro.core.costmodel.CostModel`.
    replication: replica count per shard (``0..shards-1``); each
        shard's rows are then also served by peer engines
        (:func:`~repro.db.partition.plan_replicas`).
    replica_budget: optional cap on total replica placements —
        the hottest shards (by partition row count) are protected
        first.
    strict: ``True`` (default) raises :class:`ShardError` when a
        shard fails every host; ``False`` degrades instead
        (``ShardedResult.complete=False``).
    deadline_cycles: per-query serve budget per shard attempt, in
        *modeled* cycles (``None`` = no deadline).  Individual calls
        may override it.
    hedge_fraction: fraction of the deadline after which a straggling
        attempt triggers a hedged dispatch to the next replica.
    breaker_threshold / breaker_cooldown: per-shard circuit breaker
        tuning (:class:`~repro.db.failover.CircuitBreaker`).
    fault_injector: optional db-layer fault injector
        (:class:`repro.faults.db.DbFaultInjector`) — the chaos
        harness's hook; ``None`` costs nothing.

    Tables are partitioned lazily on first use and pinned; the
    coordinator engine shares this engine's registry (``db.engine.*``
    and ``db.shard.*`` land in one snapshot), while shard engines keep
    private registries whose values are folded into
    :meth:`metrics_snapshot` as ``db.shard.<i>.engine.*``.
    """

    def __init__(self, config="DBA_2LSU_EIS", shards=4,
                 partitioner="hash", partition_column=None,
                 partial_load=True, cost_model=True, registry=None,
                 interconnect=None, replication=0, replica_budget=None,
                 strict=True, deadline_cycles=None, hedge_fraction=0.5,
                 breaker_threshold=3, breaker_cooldown=8,
                 fault_injector=None, partitioned_order_by=True):
        if shards < 1:
            raise ValueError("need at least one shard")
        if not 0 <= replication <= shards - 1:
            raise ValueError("replication must be within 0..shards-1, "
                             "got %d for %d shard(s)"
                             % (replication, shards))
        if not 0.0 < hedge_fraction < 1.0:
            raise ValueError("hedge_fraction must be in (0, 1)")
        self.shards = shards
        self.replication = replication
        self.replica_budget = replica_budget
        self.strict = strict
        self.deadline_cycles = deadline_cycles
        self.hedge_fraction = hedge_fraction
        self.fault_injector = fault_injector
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.coordinator = QueryEngine(config=config,
                                       partial_load=partial_load,
                                       cost_model=cost_model,
                                       registry=self.registry)
        self.config_name = self.coordinator.config_name
        self.partial_load = partial_load
        self.cost_model = self.coordinator.cost_model
        self.partitioner = make_partitioner(partitioner, shards,
                                            column=partition_column)
        self.shard_engines = [
            QueryEngine(config=config, partial_load=partial_load,
                        cost_model=self.cost_model
                        if self.cost_model is not None else False)
            for _ in range(shards)]
        self.interconnect = interconnect or Interconnect()
        self.interconnect.register_metrics(self.registry,
                                           "db.shard.gather")
        scope = self.registry.scope("db.shard")
        self._queries = scope.counter("queries")
        self._batches = scope.counter("batches")
        self._skipped = scope.counter("skipped")
        self._makespan_total = scope.counter("makespan_cycles")
        self._single_total = scope.counter("serial_cycles")
        self._merge_cycles = scope.counter("gather.merge_cycles")
        self._transfer_cycles = scope.counter("gather.transfer_cycles")
        self._merges = scope.counter("gather.merges")
        self._skew = scope.gauge("skew")
        self._shard_count = scope.gauge("shards")
        self._shard_count.set(shards)
        self._replication_gauge = scope.gauge("replication")
        self._replication_gauge.set(replication)
        self._makespan_hist = scope.histogram("query_makespan_cycles")
        self.partitioned_order_by = partitioned_order_by
        self._sort_merges = scope.counter("sort.merges")
        self._sort_merge_cycles = scope.counter("sort.merge_cycles")
        self._deltas = scope.counter("deltas")
        self._delta_rows = scope.counter("delta_rows")
        fault_scope = self.registry.scope("db.fault")
        self._fault = {name: fault_scope.counter(name)
                       for name in FAULT_COUNTERS}
        self.breakers = [CircuitBreaker(threshold=breaker_threshold,
                                        cooldown=breaker_cooldown)
                         for _ in range(shards)]
        self._shard_scopes = []
        self._breaker_scopes = []
        for index in range(shards):
            shard_scope = scope.scope(str(index))
            self._shard_scopes.append({
                "queries": shard_scope.counter("queries"),
                "cycles": shard_scope.counter("cycles"),
                "rows": shard_scope.counter("rows"),
                "skipped": shard_scope.counter("skipped"),
                "failures": shard_scope.counter("failures"),
                "rows_held": shard_scope.gauge("rows_held"),
                "queue_depth": shard_scope.gauge("queue_depth"),
                "replicas": shard_scope.gauge("replicas"),
            })
            breaker_scope = shard_scope.scope("breaker")
            self._breaker_scopes.append({
                "state": breaker_scope.gauge("state"),
                "trips": breaker_scope.counter("trips"),
                "probes": breaker_scope.counter("probes"),
                "failures": breaker_scope.counter("failures"),
                "short_circuits": breaker_scope.counter("short_circuits"),
            })
        #: id(table) -> _Partition (which pins the table, so the id()
        #: keys stay unique for the engine's lifetime).
        self._partitions = {}
        self._pool = None

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self):
        """Release the worker pool (no-op unless workers mode ran)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False

    # -- partitioning ---------------------------------------------------------

    def shards_for(self, table):
        """Partition (once) and return this table's shard sub-tables
        (see :func:`~repro.db.partition.partition_table`)."""
        return self._partition(table).shards

    def replica_hosts(self, table, position):
        """Engine indices hosting shard *position*'s replicas."""
        return list(self._partition(table).replicas[position])

    def _partition(self, table):
        partition = self._partitions.get(id(table))
        if partition is not None:
            return partition
        shards = partition_table(table, self.partitioner)
        placement = plan_replicas([shard.row_count for shard in shards],
                                  self.shards, self.replication,
                                  budget=self.replica_budget)
        # Freeze the router now: range bounds must never be recomputed
        # after deltas, or existing rows would move shards.
        partition = _Partition(table, shards, placement,
                               self.partitioner.router(table))
        self._partitions[id(table)] = partition
        for index, shard in enumerate(shards):
            self._shard_scopes[index]["rows_held"].set(shard.row_count)
            self._shard_scopes[index]["replicas"].set(
                len(placement[index]))
        return partition

    # -- delta maintenance ----------------------------------------------------

    def apply_delta(self, table, batch):
        """Apply a delta batch to a sharded columnar table.

        The coordinator engine applies the batch to the parent table
        first (assigning RIDs, maintaining its scan cache and standing
        queries); the effective rows are then routed — inserts through
        the table's *frozen* partition router, deletes to the sub-table
        that holds the RID — and replayed onto each shard's sub-table
        as a pre-assigned-RID sub-batch.  Existing rows never move
        shards, so the shard engines' scan caches lose only entries
        whose predicate overlaps the delta's touched values.
        """
        partition = self._partition(table)
        applied = self.coordinator.apply_delta(table, batch)
        outcome = applied["table"]
        insert_rids = outcome["insert_rids"]
        insert_columns = outcome["insert_columns"]
        deleted_rids = outcome["deleted_rids"]
        # A delete-only batch carries no insert columns to route on.
        targets = route(partition.router, self.shards, insert_rids,
                        insert_columns) if insert_rids.size \
            else insert_rids
        for position, shard in enumerate(partition.shards):
            mine = targets == position
            deletes = deleted_rids[_np.isin(deleted_rids,
                                            shard.all_rids())]
            if not mine.any() and not deletes.size:
                continue
            sub_batch = DeltaBatch(
                inserts={name: values[mine] for name, values
                         in insert_columns.items()},
                delete_rids=deletes, insert_rids=insert_rids[mine])
            touched = shard.apply_delta(sub_batch)["touched"]
            for engine in self.shard_engines:
                engine.invalidate(shard, touched)
            self._shard_scopes[position]["rows_held"].set(
                shard.row_count)
        self._deltas.add(1)
        self._delta_rows.add(len(insert_rids) + len(deleted_rids))
        return applied

    def register_standing(self, query):
        """Register a standing query on the coordinator engine (the
        parent table sees every delta exactly once there)."""
        return self.coordinator.register_standing(query)

    # -- serving --------------------------------------------------------------

    def execute(self, query, tracer=None, deadline_cycles=None):
        """Serve one query; returns a :class:`ShardedResult`."""
        return self._execute_one(query, cse=None, tracer=tracer,
                                 deadline=deadline_cycles)

    def execute_batch(self, queries, workers=1, timeout=None,
                      tracer=None, deadline_cycles=None):
        """Serve a batch; :class:`ShardedResult` per query.

        ``workers > 1`` evaluates shard WHERE work across a persistent
        supervised process pool (one task per shard per batch, crash
        isolation and retries included); the gather reduce and the
        ORDER BY tail always run in-process on the coordinator.  Both
        modes produce identical results and identical modeled cycles.

        *deadline_cycles* overrides the engine-level deadline for this
        batch (modeled cycles per shard attempt).
        """
        queries = list(queries)
        started = time.perf_counter()
        self._batches.add(1)
        for scope in self._shard_scopes:
            scope["queue_depth"].set(len(queries))
        base_cycles = [scope["cycles"].value
                       for scope in self._shard_scopes]
        try:
            if workers > 1 and len(queries) > 1:
                prefetched = self._scatter_pooled(queries, workers,
                                                  timeout)
            else:
                prefetched = [None] * len(queries)
            cse = [{} for _ in range(self.shards)]
            results = [self._execute_one(query, cse, tracer, index,
                                         prefetched[index],
                                         deadline_cycles)
                       for index, query in enumerate(queries)]
        finally:
            for scope in self._shard_scopes:
                scope["queue_depth"].set(0)
        loads = [scope["cycles"].value - before
                 for scope, before in zip(self._shard_scopes,
                                          base_cycles)]
        self._skew.set(skew_ratio(loads))
        elapsed = time.perf_counter() - started
        # Mirror the batch-level serving gauges the dashboards read
        # from db.engine.* — the coordinator served this batch.
        self.coordinator._batches.add(1)
        if elapsed > 0:
            self.coordinator._last_qps.set(len(queries) / elapsed)
        return results

    # -- internals ------------------------------------------------------------

    def _execute_one(self, query, cse, tracer=None, index=0,
                     prefetched=None, deadline=None):
        table = query.table
        lint_query_or_raise(query, engine=self.coordinator)
        if deadline is None:
            deadline = self.deadline_cycles
        stats = QueryStats()
        shard_cycles = [0] * self.shards
        gather_cycles = transfer_cycles = skipped = failovers = 0
        shards_failed = ()
        entries = None
        if query.predicate is None:
            # Full scan: nothing to scatter, the coordinator owns the
            # whole table anyway.
            rids = table.all_rids()
        else:
            entries = self._scatter(table, query.predicate, cse,
                                    tracer, index, prefetched, deadline)
            (rids, combined, gather_cycles, transfer_cycles,
             shard_cycles, skipped, shards_failed,
             failovers) = self._gather(entries)
            _merge_stats(stats, combined)
            if shards_failed:
                self._fault["shard_failures"].add(len(shards_failed))
                if self.strict:
                    attempts = [attempt for entry in entries
                                if entry[0] == "failed"
                                for attempt in entry[2]]
                    raise ShardError(
                        "query %d: shard(s) %s failed after failover"
                        % (index, ", ".join(str(position) for position
                                            in shards_failed)),
                        outcomes=attempts, survivors=rids.tolist(),
                        shard=shards_failed[0], query_index=index)
                self._fault["degraded"].add(1)
        tail_before = stats.cycles
        parallel_sort_cycles = 0
        if query.order_by is not None:
            if self.partitioned_order_by:
                # Per-shard sort + EIS merge: each shard sorts its own
                # packed slice in parallel (charged to the shard's
                # makespan term), only the union fold stays serial.
                rids, sort_cycle_map = self._order_by_partitioned(
                    table, query, entries, stats)
                for position, cycles in sort_cycle_map.items():
                    shard_cycles[position] += cycles
                    self._shard_scopes[position]["cycles"].add(cycles)
                    parallel_sort_cycles += cycles
            else:
                rids, sort_stats = self.coordinator.executor.order_by(
                    table, rids, query.order_by, query.descending)
                _merge_stats(stats, sort_stats)
        if query.limit is not None:
            rids = rids[:query.limit]
        rows = table.fetch(rids, query.columns)
        tail_cycles = stats.cycles - tail_before - parallel_sort_cycles
        makespan = (max(shard_cycles) if shard_cycles else 0) \
            + gather_cycles + transfer_cycles + tail_cycles
        self._account(stats, len(rows), makespan, skipped)
        return ShardedResult(rows, rids.tolist(), stats, shard_cycles,
                             makespan, gather_cycles, transfer_cycles,
                             skipped, complete=not shards_failed,
                             shards_failed=shards_failed,
                             failovers=failovers)

    def _scatter(self, table, predicate, cse, tracer, index,
                 prefetched, deadline):
        """Serve the WHERE tree on every owning shard, with failover.

        Returns one entry per shard: ``("skipped",)`` for pruned
        shards, ``("ok", rids, stats, cycles, failovers)`` for served
        ones, ``("failed", cycles, attempts)`` when every host failed.
        *prefetched* carries pooled-scatter payload cells (or ``None``
        for the inline path, where pruning happens here).
        """
        partition = self._partition(table)
        entries = []
        for position, shard in enumerate(partition.shards):
            payload = prefetched[position] \
                if prefetched is not None else None
            if payload is _PRUNED:
                entries.append(_SKIPPED)
                continue
            if prefetched is None \
                    and not shard_may_match(shard, predicate):
                entries.append(_SKIPPED)
                continue
            hosts = [position] + partition.replicas[position]
            entries.append(self._serve_shard(
                position, hosts, shard, predicate, cse, tracer, index,
                payload, deadline))
        return entries

    def _order_by_partitioned(self, table, query, entries, stats):
        """Per-shard sort of packed key/RID words + EIS union merge.

        Correctness is structural: shards hold disjoint RID sets, so
        the packed ``key << RID_BITS | rid`` words are globally unique
        and the EIS union fold of per-shard sorted packed lists is
        exactly the coordinator's serial merge sort of the union —
        same rids, same key ties, byte-identical.

        Returns ``(ordered_rids, {position: sort_cycles})``; the
        per-shard sort cycles join the makespan's parallel max, only
        the merge cycles (folded into *stats*) stay serial.
        """
        if entries is None:
            shards = self.shards_for(table)
            per_shard = [(position, shard.all_rids())
                         for position, shard in enumerate(shards)]
        else:
            per_shard = [(position, entry[1])
                         for position, entry in enumerate(entries)
                         if entry[0] == "ok"]
        executor = self.coordinator.executor
        sort_cycle_map = {}
        merge_stats = QueryStats()
        merged = _np.empty(0, dtype=_np.int64)
        for position, rids in per_shard:
            if not len(rids):
                continue
            packed = executor.pack_rids(table, rids, query.order_by)
            shard_sorted, shard_stats = \
                self.shard_engines[position].executor.sort_packed(
                    packed)
            _merge_stats(stats, shard_stats)
            sort_cycle_map[position] = shard_stats.cycles
            merged = executor.set_operation("union", merged,
                                            shard_sorted, merge_stats)
            self._sort_merges.add(1)
        _merge_stats(stats, merge_stats)
        self._sort_merge_cycles.add(merge_stats.cycles)
        ordered = merged & ((1 << RID_BITS) - 1)
        if query.descending:
            ordered = ordered[::-1]
        return ordered, sort_cycle_map

    def _serve_shard(self, position, hosts, shard, predicate, cse,
                     tracer, index, payload, deadline):
        """One shard's WHERE for one query, across its host chain.

        Sequential failover along ``hosts`` (primary first, then
        replicas), with the circuit breaker gating the primary,
        checksum-verified delivery (corrupt responses are retransmitted
        once, then failed over), and deadline/hedge handling: an
        attempt straggling past ``hedge_fraction * deadline`` races a
        hedged dispatch on the next host, earliest valid completion
        wins.  ``cycles`` charged to the shard is the modeled time
        until its answer (or final failure) was available.
        """
        breaker = self.breakers[position]
        breaker_scope = self._breaker_scopes[position]
        trigger = None
        if deadline is not None:
            trigger = max(1, int(deadline * self.hedge_fraction))
        attempts = []
        charged = 0
        failovers = 0
        slot = 0
        while slot < len(hosts):
            host = hosts[slot]
            primary = slot == 0
            if primary:
                allowed, _probing = breaker.allow()
                self._sync_breaker(position)
                if not allowed:
                    breaker_scope["short_circuits"].add(1)
                    attempts.append({"host": host,
                                     "status": "short_circuit"})
                    slot += 1
                    continue
            status, rids, stats, cycles = self._attempt(
                position, host, shard, predicate, cse, tracer, index,
                payload if primary else None)
            if status == "corrupt":
                # Checksum mismatch: charge the wasted attempt and
                # retransmit once from the same host (a fresh inline
                # evaluation) before giving up on it.
                self._fault["corruptions_detected"].add(1)
                self._fault["retransmits"].add(1)
                charged += cycles
                attempts.append({"host": host, "status": "corrupt"})
                status, rids, stats, cycles = self._attempt(
                    position, host, shard, predicate, cse, tracer,
                    index, None)
            if status != "ok":
                if primary:
                    breaker.record(False)
                    self._sync_breaker(position)
                    breaker_scope["failures"].add(1)
                attempts.append({"host": host, "status": status})
                slot += 1
                continue
            if trigger is None or cycles <= trigger:
                return self._accept(position, primary, rids, stats,
                                    charged + cycles, failovers)
            # Straggler: past the hedge trigger with a deadline set.
            hedge_host = hosts[slot + 1] if slot + 1 < len(hosts) \
                else None
            if hedge_host is None:
                if cycles <= deadline:
                    # Slow but within budget, and nothing to hedge on.
                    return self._accept(position, primary, rids, stats,
                                        charged + cycles, failovers)
                charged += deadline
                self._fault["deadline_misses"].add(1)
                if primary:
                    breaker.record(False)
                    self._sync_breaker(position)
                    breaker_scope["failures"].add(1)
                attempts.append({"host": host, "status": "deadline"})
                slot += 1
                continue
            self._fault["hedges"].add(1)
            h_status, h_rids, h_stats, h_cycles = self._attempt(
                position, hedge_host, shard, predicate, cse, tracer,
                index, None)
            if h_status == "corrupt":
                self._fault["corruptions_detected"].add(1)
                h_status = "corrupt_dropped"
            candidates = []
            if cycles <= deadline:
                candidates.append((cycles, rids, stats, False))
            if h_status == "ok" and trigger + h_cycles <= deadline:
                candidates.append((trigger + h_cycles, h_rids, h_stats,
                                   True))
            if candidates:
                done, win_rids, win_stats, via_hedge = \
                    min(candidates, key=lambda item: item[0])
                if primary:
                    primary_ok = cycles <= deadline
                    breaker.record(primary_ok)
                    self._sync_breaker(position)
                    if not primary_ok:
                        breaker_scope["failures"].add(1)
                if via_hedge or not primary:
                    failovers += 1
                    self._fault["failovers"].add(1)
                return ("ok", win_rids, win_stats, charged + done,
                        failovers)
            # Both the straggler and its hedge blew the deadline.
            charged += deadline
            self._fault["deadline_misses"].add(1)
            if primary:
                breaker.record(False)
                self._sync_breaker(position)
                breaker_scope["failures"].add(1)
            attempts.append({"host": host, "status": "deadline"})
            attempts.append({"host": hedge_host,
                             "status": h_status if h_status != "ok"
                             else "deadline"})
            slot += 2
        return ("failed", charged, attempts)

    def _accept(self, position, primary, rids, stats, charged,
                failovers):
        """Book a winning attempt as this shard's serve outcome."""
        if primary:
            breaker = self.breakers[position]
            breaker.record(True)
            self._sync_breaker(position)
        else:
            failovers += 1
            self._fault["failovers"].add(1)
        return ("ok", rids, stats, charged, failovers)

    def _attempt(self, position, host, shard, predicate, cse, tracer,
                 index, payload):
        """One dispatch of shard *position*'s WHERE to engine *host*.

        Returns ``(status, rids, stats, cycles)`` with *status* one of
        ``"ok"`` / ``"killed"`` / ``"corrupt"``; *cycles* are the
        modeled serve cycles of the attempt including any injected
        response delay.  The sender computes the RID checksum *before*
        the response crosses the (corruptible) channel; delivery
        recomputes and compares.
        """
        injector = self.fault_injector
        if payload is _POOL_FAILED:
            self._fault["pool_failures"].add(1)
            return ("killed", None, None, 0)
        if injector is not None and injector.host_killed(host, index):
            self._fault["kills"].add(1)
            return ("killed", None, None, 0)
        if payload is not None:
            rids, checksum, stats = payload
        else:
            engine = self.shard_engines[host]
            shard_cse = cse[position] if cse is not None else None
            rids, stats = engine.evaluate_predicate(
                shard, predicate, cse=shard_cse, tracer=tracer,
                index=index)
            checksum = rid_checksum(rids)
        cycles = stats.cycles
        if injector is not None:
            delay = injector.delay_cycles(position, index)
            if delay:
                self._fault["delays"].add(1)
                self._fault["delay_cycles"].add(delay)
                cycles += delay
            rids, mutated = injector.deliver(position, index, rids)
            if mutated:
                self._fault["corruptions"].add(1)
        if rid_checksum(rids) != checksum:
            return ("corrupt", None, None, cycles)
        return ("ok", rids, stats, cycles)

    def _sync_breaker(self, position):
        breaker = self.breakers[position]
        scope = self._breaker_scopes[position]
        scope["state"].set(BREAKER_STATES.index(breaker.state))
        scope["trips"].value = breaker.trips
        scope["probes"].value = breaker.probes

    def _gather(self, per_shard):
        """EIS union fold of per-shard RID lists on the coordinator.

        Each non-empty contribution is charged one interconnect burst
        (``RID_BYTES * len(rids)``); the fold itself runs through the
        coordinator executor's ``set_operation`` so merge cycles come
        from the same calibrated/ISS path as every other set op.

        Returns ``(rids, combined_stats, gather_cycles,
        transfer_cycles, shard_cycles, skipped, shards_failed,
        failovers)`` where ``combined_stats`` is all work (shard WHERE
        + gather) and the two cycle figures isolate the gather-side
        serial terms of the makespan.
        """
        combined = QueryStats()
        gather_stats = QueryStats()
        shard_cycles = [0] * self.shards
        skipped = 0
        failovers = 0
        shards_failed = []
        merged = _np.empty(0, dtype=_np.int64)
        for position, entry in enumerate(per_shard):
            scope = self._shard_scopes[position]
            if entry[0] == "skipped":
                skipped += 1
                scope["skipped"].add(1)
                continue
            if entry[0] == "failed":
                _kind, charged, _attempts = entry
                shards_failed.append(position)
                scope["failures"].add(1)
                scope["cycles"].add(charged)
                shard_cycles[position] = charged
                continue
            _kind, rids, stats, charged, shard_failovers = entry
            failovers += shard_failovers
            scope["queries"].add(1)
            scope["cycles"].add(charged)
            scope["rows"].add(len(rids))
            shard_cycles[position] = charged
            _merge_stats(combined, stats)
            if len(rids):
                cycles = self.interconnect.transfer_cycles(
                    RID_BYTES * len(rids))
                gather_stats.add_cycles(cycles, "interconnect")
                merged = self.coordinator.executor.set_operation(
                    "union", merged, rids, gather_stats)
                self._merges.add(1)
        transfer_cycles = \
            gather_stats.cycles_by_source.get("interconnect", 0)
        gather_cycles = gather_stats.cycles - transfer_cycles
        self._merge_cycles.add(gather_cycles)
        self._transfer_cycles.add(transfer_cycles)
        self._skipped.add(skipped)
        _merge_stats(combined, gather_stats)
        return (merged, combined, gather_cycles, transfer_cycles,
                shard_cycles, skipped, tuple(shards_failed), failovers)

    def _account(self, stats, row_count, makespan, skipped):
        self._queries.add(1)
        self._makespan_total.add(makespan)
        self._single_total.add(stats.cycles
                               - stats.cycles_by_source.get(
                                   "interconnect", 0))
        self._makespan_hist.observe(makespan)
        # Keep db.engine.* live too: the coordinator serves the query
        # as far as dashboards and history baselines are concerned.
        self.coordinator._account(stats, row_count)

    # -- pooled scatter -------------------------------------------------------

    def _scatter_pooled(self, queries, workers, timeout):
        """Evaluate all (query, shard) WHERE work on a process pool.

        One task per owning shard carries the whole batch's predicate
        list; pruning happens here in the parent (the shard tables are
        local), so skipped shards never reach the pool.  Returns
        ``prefetched[query_index][shard]`` cells — ``(rids, checksum,
        stats)`` payloads, the ``_PRUNED`` sentinel, or
        ``_POOL_FAILED`` for cells whose worker task failed (served by
        replica failover, or degraded / raised downstream).

        A failed task raises a typed :class:`ShardError` carrying the
        per-task outcomes *and* the surviving prefetched cells — but
        only when the failure is terminal (strict mode with no
        replicas to fail over to); otherwise the healthy siblings'
        results are kept and the failed shard takes the inline
        failover path.
        """
        tables = {}
        for query in queries:
            tables.setdefault(id(query.table), query.table)
        if len(tables) != 1:
            raise ValueError("pooled scatter serves one table per "
                             "batch; split the batch by table")
        table = next(iter(tables.values()))
        shards = self.shards_for(table)
        plans = []  # per shard: list of (query_index, predicate)
        prefetched = [[None] * self.shards for _ in queries]
        for position, shard in enumerate(shards):
            plan = []
            for query_index, query in enumerate(queries):
                if query.predicate is None:
                    continue
                if shard_may_match(shard, query.predicate):
                    plan.append((query_index, query.predicate))
                else:
                    prefetched[query_index][position] = _PRUNED
            plans.append(plan)
        if self._pool is None:
            self._pool = SupervisorPool(jobs=min(workers, self.shards))
        tasks = []
        for position, plan in enumerate(plans):
            if not plan:
                continue
            spec = {
                "config": self.config_name,
                "partial_load": self.partial_load,
                "cost_model": self.cost_model is not None,
                "table": _table_spec(shards[position]),
                "predicates": plan,
            }
            tasks.append((position,
                          Task("shard-%d" % position,
                               _serve_shard_batch, (spec,))))
        report = self._pool.run([task for _position, task in tasks],
                                timeout=timeout, retries=1)
        failed = []
        for (position, _task), outcome in zip(tasks, report.outcomes):
            if not outcome.ok:
                failed.append((position, outcome))
                for query_index, _predicate in plans[position]:
                    prefetched[query_index][position] = _POOL_FAILED
                continue
            for query_index, rids, checksum, stats in outcome.value:
                prefetched[query_index][position] = (rids, checksum,
                                                     stats)
        if failed and self.strict and self.replication == 0:
            positions = ", ".join(str(position)
                                  for position, _outcome in failed)
            raise ShardError(
                "shard worker(s) %s failed: %s"
                % (positions, "; ".join(
                    "%s: %s" % (outcome.key,
                                (outcome.error or "?")
                                .strip().splitlines()[0])
                    for _position, outcome in failed)),
                outcomes=report.outcomes, survivors=prefetched,
                shard=failed[0][0])
        return prefetched

    # -- introspection --------------------------------------------------------

    def metrics_snapshot(self):
        """``db.shard.*`` + ``db.engine.*`` + per-shard engine values.

        Shard engines keep private registries (their ``db.engine.*``
        names would collide in the shared one); their counters are
        folded in here as ``db.shard.<i>.engine.*``.
        """
        values = self.coordinator.metrics_snapshot()
        prefix = "db.engine."
        for index, engine in enumerate(self.shard_engines):
            for name, value in \
                    engine.registry.snapshot().as_dict().items():
                if name.startswith(prefix):
                    name = name[len(prefix):]
                values["db.shard.%d.engine.%s" % (index, name)] = value
        return values

    def clear_caches(self):
        self.coordinator.clear_caches()
        for engine in self.shard_engines:
            engine.clear_caches()
        self._partitions.clear()

    def __repr__(self):
        return "<ShardedEngine %s x%d %s cost_model=%s replicas=%d>" % (
            self.config_name, self.shards,
            self.partitioner.describe(),
            self.cost_model is not None, self.replication)


def _serve_shard_batch(spec):
    """Worker-process entry: one shard's WHERE work for a batch.

    Module-level (picklable) by supervisor contract.  Rebuilds the
    shard sub-table under its parent's RIDs (so the parent's gather
    fold needs no shard state) and a private engine, evaluates each
    predicate with batch-level CSE, and returns ``(query_index, rids,
    checksum, stats)`` tuples checksummed at the sender, so corruption
    on the response path is detected at delivery.
    """
    engine = QueryEngine(config=spec["config"],
                         partial_load=spec["partial_load"],
                         cost_model=CostModel()
                         if spec["cost_model"] else False)
    table = _table_from_spec(spec["table"])
    cse = {}
    results = []
    for query_index, predicate in spec["predicates"]:
        rids, stats = engine.evaluate_predicate(table, predicate,
                                                cse=cse)
        results.append((query_index, rids, rid_checksum(rids), stats))
    return results
