"""Batched query serving on the database processor.

:class:`QueryEngine` is the serving layer above
:class:`~repro.db.executor.QueryExecutor`, built for query *traffic*
rather than single microbenchmarks:

* **cost-model fast path** — kernels run through the calibrated
  :class:`~repro.core.costmodel.CostModel` by default, so a query
  costs vectorized set algebra instead of per-instruction simulation
  while reporting the identical cycle counts;
* **scan cache** — secondary-index scans are memoized per (table,
  leaf-predicate signature) across the engine's lifetime;
* **common-subexpression reuse** — identical predicate subtrees
  within one batch are evaluated once, and the cycles the reuse
  avoided are tracked as ``db.engine.cycles_saved``;
* **executor pool** — batches can fan out across worker processes via
  :mod:`repro.supervisor` (each worker builds its own processor and
  executor, the same crash-isolation infrastructure the experiment
  sweeps use);
* **telemetry** — ``db.engine.*`` counters (queries, cache hits,
  cycles by source, cycles saved) plus the cost model's
  ``costmodel.*`` counters in one registry snapshot.

The ISS remains the default everywhere else; pass
``cost_model=False`` to serve through the simulator (the benchmark
baseline, and the differential suite's reference).
"""

import time
from contextlib import nullcontext

from ..configs.catalog import build_processor
from ..core.costmodel import CostModel, default_cost_model
from ..supervisor import Task, supervise
from ..telemetry.querytrace import QueryTracer
from ..telemetry.registry import MetricsRegistry
from .columnar import ColumnarTable, delta_mask, invalidate_footprint
from .executor import QueryExecutor, QueryStats, _merge_stats
from .planlint import lint_query_or_raise
from .predicates import Combinator, Leaf, signature


class Query:
    """One SELECT: WHERE tree + ORDER BY + projection + limit."""

    __slots__ = ("table", "predicate", "order_by", "descending",
                 "columns", "limit")

    def __init__(self, table, predicate=None, order_by=None,
                 descending=False, columns=None, limit=None):
        self.table = table
        self.predicate = predicate
        self.order_by = order_by
        self.descending = descending
        self.columns = columns
        self.limit = limit

    def __repr__(self):
        return "<Query %s where=%r order_by=%r limit=%r>" % (
            self.table.name, self.predicate, self.order_by, self.limit)


class QueryResult:
    """Rows + RIDs (a list of ints) + per-query :class:`QueryStats`."""

    __slots__ = ("rows", "rids", "stats")

    def __init__(self, rows, rids, stats):
        self.rows = rows
        self.rids = rids
        self.stats = stats

    def __repr__(self):
        return "<QueryResult %d rows, %d cycles>" % (
            len(self.rows), self.stats.cycles)


class StandingQuery:
    """A registered query maintained incrementally under deltas.

    Holds the current sorted matching-RID list; each
    :meth:`QueryEngine.apply_delta` re-evaluates the predicate only
    over the delta's rows (vectorized, via
    :func:`~repro.db.columnar.delta_mask`) and folds the result in —
    the table is never rescanned.
    """

    __slots__ = ("query", "rids", "_members")

    def __init__(self, query, rids):
        self.query = query
        self.rids = rids.tolist()
        self._members = set(self.rids)

    def _fold(self, added, removed):
        if removed:
            dead = set(removed)
            self._members -= dead
            self.rids = [rid for rid in self.rids if rid not in dead]
        if added:
            # New RIDs are above everything ever assigned, so
            # appending keeps the list sorted.
            self.rids.extend(added)
            self._members.update(added)

    def __repr__(self):
        return "<StandingQuery %s: %d rids>" % (
            self.query.table.name, len(self.rids))


class StandingUpdate:
    """Output delta of one standing query for one input delta."""

    __slots__ = ("standing", "added", "removed")

    def __init__(self, standing, added, removed):
        self.standing = standing
        self.added = added
        self.removed = removed

    def __repr__(self):
        return "<StandingUpdate +%d -%d>" % (len(self.added),
                                             len(self.removed))


class QueryEngine:
    """Serves query batches on one processor configuration.

    *cost_model* may be ``True`` (the process-wide shared
    :func:`~repro.core.costmodel.default_cost_model`), ``False`` /
    ``None`` (pure ISS), or a :class:`CostModel` instance.
    """

    def __init__(self, config="DBA_2LSU_EIS", processor=None,
                 partial_load=True, cost_model=True, registry=None):
        if processor is None:
            processor = build_processor(config,
                                        partial_load=partial_load)
        self.processor = processor
        self.config_name = processor.config.name
        self.partial_load = partial_load
        if cost_model is True:
            cost_model = default_cost_model()
        elif cost_model is False:
            cost_model = None
        self.cost_model = cost_model
        self.executor = QueryExecutor(processor, cost_model=cost_model)
        # Not ``registry or ...``: an empty registry is falsy
        # (``__len__``) and a caller-shared one must still be adopted.
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        scope = self.registry.scope("db.engine")
        self._queries = scope.counter("queries")
        self._batches = scope.counter("batches")
        self._rows = scope.counter("rows")
        self._cycles_iss = scope.counter("cycles_iss")
        self._cycles_costmodel = scope.counter("cycles_costmodel")
        self._cycles_saved = scope.counter("cycles_saved")
        self._scan_hits = scope.counter("scan_cache.hits")
        self._scan_misses = scope.counter("scan_cache.misses")
        self._cse_hits = scope.counter("cse.hits")
        self._short_circuits = scope.counter("short_circuits")
        self._last_qps = scope.gauge("last_batch_qps")
        self._query_cycles = scope.histogram("query_cycles")
        self._queue_depth = scope.gauge("queue_depth")
        self._workers = scope.gauge("workers")
        self._active_workers = scope.gauge("active_workers")
        self._deltas = scope.counter("deltas")
        self._delta_rows = scope.counter("delta_rows")
        self._scan_invalidated = scope.counter(
            "scan_cache.invalidated")
        self._standing_count = scope.gauge("standing.registered")
        self._standing_updates = scope.counter("standing.updates")
        self._standing_scanned = scope.counter("standing.rows_scanned")
        #: (id(table), signature) -> read-only int64 RID ndarray;
        #: tables are pinned so the id() keys stay unique for the
        #: engine's lifetime.
        self._scan_cache = {}
        self._pinned_tables = {}
        #: id(table) -> [StandingQuery, ...]
        self._standing = {}

    # -- single query ---------------------------------------------------------

    def execute(self, query, tracer=None):
        """Serve one :class:`Query`; returns a :class:`QueryResult`."""
        return self._execute_one(query, cse=None, tracer=tracer)

    # -- batches --------------------------------------------------------------

    def execute_batch(self, queries, workers=1, timeout=None,
                      tracer=None):
        """Serve a batch; returns :class:`QueryResult` per query.

        With ``workers > 1`` the batch fans out over a supervised
        process pool (one executor per worker); caches then live per
        worker chunk, so reuse-heavy traffic profits most from the
        in-process path.  Every query is plan-linted in this process
        first, so a refused query raises the same
        :class:`~repro.db.planlint.PlanError` at any worker count.
        Worker counters come back namespaced as
        ``db.engine.worker.<i>.*`` plus aggregated totals, so pooled
        serving no longer loses child-process telemetry.

        *tracer* (a :class:`~repro.telemetry.querytrace.QueryTracer`)
        records wall-clock and modeled-cycle spans for the batch; in
        pooled mode each worker's trace is reattached as a child
        payload for the merged Perfetto export.
        """
        queries = list(queries)
        started = time.perf_counter()
        self._queue_depth.set(len(queries))
        batch = tracer.span("batch", queries=len(queries)) \
            if tracer is not None else nullcontext()
        try:
            with batch:
                if workers > 1 and len(queries) > 1:
                    results = self._execute_parallel(
                        queries, workers, timeout, tracer)
                else:
                    self._workers.set(1)
                    self._active_workers.set(1)
                    cse = {}
                    results = [self._execute_one(query, cse, tracer,
                                                 index)
                               for index, query in enumerate(queries)]
        finally:
            self._queue_depth.set(0)
        elapsed = time.perf_counter() - started
        self._batches.add(1)
        if elapsed > 0:
            self._last_qps.set(len(queries) / elapsed)
        return results

    # -- predicate evaluation (shard scatter entry point) ---------------------

    def evaluate_predicate(self, table, predicate, stats=None,
                           cse=None, tracer=None, index=0):
        """Evaluate a WHERE tree on *table*; ``(rids, stats)``.

        The scatter half of sharded execution
        (:class:`~repro.db.shard.ShardedEngine`): a shard evaluates the
        query's predicate tree against its partition through this
        engine — scan cache, CSE and cycle attribution included —
        without the ORDER BY / fetch tail the coordinator owns.
        """
        if stats is None:
            stats = QueryStats()
        rids = self._evaluate(table, predicate, stats, cse, tracer,
                              index)
        return rids, stats

    # -- delta maintenance ----------------------------------------------------

    def apply_delta(self, table, batch):
        """Apply a :class:`~repro.db.columnar.DeltaBatch` to *table*
        and maintain all derived engine state.

        * Scan-cache entries survive unless some leaf of their
          predicate can match a value the delta touched (checked
          vectorized against the delta's per-column value footprint).
        * Standing queries are re-evaluated only over the delta's rows
          and each emits a :class:`StandingUpdate` output delta.

        Returns ``{"table": <table outcome>, "invalidated": n,
        "updates": [StandingUpdate, ...]}``.
        """
        outcome = table.apply_delta(batch)
        invalidated = self.invalidate(table, outcome["touched"])
        updates = []
        insert_rids = outcome["insert_rids"]
        removed_candidates = set(outcome["deleted_rids"].tolist())
        for standing in self._standing.get(id(table), ()):
            if len(insert_rids):
                mask = delta_mask(standing.query.predicate,
                                  outcome["insert_columns"])
                added = insert_rids[mask].tolist()
            else:
                added = []
            removed = sorted(standing._members & removed_candidates)
            standing._fold(added, removed)
            updates.append(StandingUpdate(standing, added, removed))
            self._standing_updates.add(1)
            self._standing_scanned.add(
                len(insert_rids) + len(removed_candidates))
        self._deltas.add(1)
        self._delta_rows.add(len(insert_rids)
                             + len(removed_candidates))
        return {"table": outcome, "invalidated": invalidated,
                "updates": updates}

    def invalidate(self, table, touched):
        """Drop the scan-cache entries on *table* that a delta with
        the per-column *touched* value footprint may have changed;
        returns (and counts, ``scan_cache.invalidated``) how many."""
        invalidated = invalidate_footprint(self._scan_cache, id(table),
                                           touched)
        self._scan_invalidated.add(invalidated)
        return invalidated

    def register_standing(self, query):
        """Register *query* for incremental maintenance.

        The query must be a pure WHERE shape (no ORDER BY / limit /
        projection — the output is a sorted RID set, a Z-set view).
        It is evaluated once now; afterwards
        :meth:`apply_delta` maintains it from delta rows alone.
        """
        if query.predicate is None or query.order_by is not None \
                or query.limit is not None or query.columns:
            raise ValueError("standing queries are pure WHERE shapes")
        lint_query_or_raise(query, engine=self)
        rids, _stats = self.evaluate_predicate(query.table,
                                               query.predicate)
        standing = StandingQuery(query, rids)
        self._standing.setdefault(id(query.table), []).append(standing)
        self._pinned_tables[id(query.table)] = query.table
        self._standing_count.set(
            sum(len(group) for group in self._standing.values()))
        return standing

    # -- internals ------------------------------------------------------------

    def _execute_one(self, query, cse, tracer=None, index=0):
        table = query.table
        stats = QueryStats()
        span = tracer.span("query", query=index, table=table.name) \
            if tracer is not None else nullcontext()
        with span:
            with (tracer.span("plan", query=index)
                  if tracer is not None else nullcontext()):
                lint_query_or_raise(query, engine=self)
            if query.predicate is not None:
                rids = self._evaluate(table, query.predicate, stats,
                                      cse, tracer, index)
            else:
                rids = table.all_rids()
            if query.order_by is not None:
                sort = tracer.span("sort", query=index,
                                   column=query.order_by) \
                    if tracer is not None else nullcontext()
                with sort:
                    rids, sort_stats = self.executor.order_by(
                        table, rids, query.order_by, query.descending)
                _merge_stats(stats, sort_stats)
                self._record_cycles(tracer, "sort.%s" % query.order_by,
                                    sort_stats.cycles_by_source, index)
            if query.limit is not None:
                rids = rids[:query.limit]
            with (tracer.span("fetch", query=index)
                  if tracer is not None else nullcontext()):
                rows = table.fetch(rids, query.columns)
        self._account(stats, len(rows))
        return QueryResult(rows, rids.tolist(), stats)

    def _evaluate(self, table, predicate, stats, cse, tracer=None,
                  index=0):
        if isinstance(predicate, Leaf):
            stats.index_scans += 1
            key = (id(table), signature(predicate))
            cached = self._scan_cache.get(key)
            if cached is not None:
                self._scan_hits.add(1)
                if tracer is not None:
                    with tracer.span("scan.cached", query=index):
                        return cached
                return cached
            scan = tracer.span("scan", query=index) \
                if tracer is not None else nullcontext()
            with scan:
                rids = predicate.scan(table)
            # Cached and handed out uncopied: read-only from here on.
            rids.flags.writeable = False
            self._pinned_tables[id(table)] = table
            self._scan_cache[key] = rids
            self._scan_misses.add(1)
            return rids
        if not isinstance(predicate, Combinator):
            raise TypeError("not a predicate: %r" % (predicate,))
        key = (id(table), signature(predicate))
        if cse is not None:
            hit = cse.get(key)
            if hit is not None:
                rids, avoided = hit
                self._cse_hits.add(1)
                self._cycles_saved.add(avoided)
                if tracer is not None:
                    with tracer.span("cse", query=index,
                                     cycles_avoided=avoided):
                        return rids
                return rids
        before = stats.cycles
        left = self._evaluate(table, predicate.left, stats, cse,
                              tracer, index)
        right = self._evaluate(table, predicate.right, stats, cse,
                               tracer, index)
        name = "set.%s" % predicate.operation
        by_source_before = dict(stats.cycles_by_source)
        with (tracer.span(name, query=index)
              if tracer is not None else nullcontext()):
            rids = self.executor.set_operation(predicate.operation,
                                               left, right, stats)
        if tracer is not None:
            delta = {source: cycles - by_source_before.get(source, 0)
                     for source, cycles
                     in stats.cycles_by_source.items()}
            self._record_cycles(tracer, name, delta, index)
        if cse is not None:
            # Later queries of the batch share it: read-only too.
            rids.flags.writeable = False
            cse[key] = (rids, stats.cycles - before)
        return rids

    def _record_cycles(self, tracer, name, by_source, index):
        """Modeled-cycle spans, one per nonzero attribution source."""
        if tracer is None:
            return
        for source in sorted(by_source):
            cycles = by_source[source]
            if cycles:
                tracer.cycles(name, cycles, source, {"query": index})

    def _account(self, stats, row_count):
        self._queries.add(1)
        self._rows.add(row_count)
        self._cycles_iss.add(stats.cycles_by_source.get("iss", 0))
        self._cycles_costmodel.add(
            stats.cycles_by_source.get("costmodel", 0))
        self._short_circuits.add(stats.short_circuits)
        self._query_cycles.observe(stats.cycles)

    # -- parallel workers -----------------------------------------------------

    def _execute_parallel(self, queries, workers, timeout, tracer=None):
        for query in queries:
            lint_query_or_raise(query, engine=self)
        chunks = [[] for _ in range(workers)]
        for index, query in enumerate(queries):
            chunks[index % workers].append((index, query))
        chunks = [chunk for chunk in chunks if chunk]
        self._workers.set(workers)
        self._active_workers.set(len(chunks))
        dispatch = tracer.span("dispatch", chunks=len(chunks)) \
            if tracer is not None else nullcontext()
        with dispatch:
            tasks = []
            for chunk_index, chunk in enumerate(chunks):
                spec = self._worker_spec(chunk, chunk_index, tracer)
                tasks.append(Task("chunk-%d" % chunk_index,
                                  _serve_worker_chunk, (spec,)))
            report = supervise(tasks, jobs=len(tasks), timeout=timeout,
                               retries=1)
        gather = tracer.span("gather") \
            if tracer is not None else nullcontext()
        with gather:
            results = [None] * len(queries)
            for chunk_index, (chunk, outcome) in enumerate(
                    zip(chunks, report.outcomes)):
                if not outcome.ok:
                    raise RuntimeError("query worker %s failed: %s"
                                       % (outcome.key, outcome.error))
                payload = outcome.value
                for (index, _query), served in zip(chunk,
                                                   payload["results"]):
                    rows, rids, stats = served
                    self._account(stats, len(rows))
                    results[index] = QueryResult(rows, rids, stats)
                self._merge_worker_metrics(chunk_index,
                                           payload["metrics"])
                if tracer is not None and payload.get("trace"):
                    tracer.add_child(payload["trace"])
            self.registry.merge_values(report.snapshot.as_dict(),
                                       prefix="db.engine")
        return results

    def _merge_worker_metrics(self, worker_index, values):
        """Fold a worker engine's snapshot into this registry.

        Child counters used to die with the subprocess; they now come
        back namespaced (``db.engine.worker.<i>.*``, including the
        worker's ``costmodel.*`` stats) and the cache-economics
        counters that :meth:`_account` does not already aggregate
        (scan cache, CSE, cycles saved) are added to the engine
        totals.  Query/row/cycle totals are *not* re-added — the
        parent accounts those per result.
        """
        trimmed = {}
        for name, value in values.items():
            if name.startswith("db.engine."):
                trimmed[name[len("db.engine."):]] = value
            else:
                trimmed[name] = value
        self.registry.merge_values(
            trimmed, prefix="db.engine.worker.%d" % worker_index)
        self._scan_hits.add(values.get("db.engine.scan_cache.hits", 0))
        self._scan_misses.add(
            values.get("db.engine.scan_cache.misses", 0))
        self._cse_hits.add(values.get("db.engine.cse.hits", 0))
        self._cycles_saved.add(values.get("db.engine.cycles_saved", 0))

    def _worker_spec(self, chunk, chunk_index=0, tracer=None):
        tables = {}
        query_specs = []
        for index, query in chunk:
            table = query.table
            if id(table) not in tables:
                tables[id(table)] = _table_spec(table)
            query_specs.append({
                "table": id(table),
                "predicate": query.predicate,
                "order_by": query.order_by,
                "descending": query.descending,
                "columns": query.columns,
                "limit": query.limit,
                "index": index,
            })
        return {
            "config": self.config_name,
            "partial_load": self.partial_load,
            "cost_model": self.cost_model is not None,
            "tables": tables,
            "queries": query_specs,
            "worker": chunk_index,
            "trace": tracer is not None,
            "trace_limit": tracer.limit if tracer is not None else 0,
        }

    # -- introspection --------------------------------------------------------

    def metrics_snapshot(self):
        """``db.engine.*`` + ``costmodel.*`` values as a flat dict."""
        values = self.registry.snapshot().as_dict()
        if self.cost_model is not None:
            for name, value in self.cost_model.stats().items():
                values["costmodel.%s" % name] = value
        return values

    def clear_caches(self):
        self._scan_cache.clear()
        self._pinned_tables.clear()

    def __repr__(self):
        return "<QueryEngine %s cost_model=%s>" % (
            self.config_name, self.cost_model is not None)


def _serve_worker_chunk(spec):
    """Worker-process entry: rebuild engine state, serve the chunk.

    Module-level (picklable) by supervisor contract.  Each worker gets
    its own processor, executor and caches; CSE still applies within
    the chunk.  The return payload carries the served rows *and* the
    worker's observability state — its engine metrics snapshot and
    (when the parent traces) its :class:`QueryTracer` payload — so
    spans and counters no longer die inside the subprocess.
    """
    engine = QueryEngine(config=spec["config"],
                         partial_load=spec["partial_load"],
                         cost_model=CostModel()
                         if spec["cost_model"] else False)
    tracer = None
    if spec.get("trace"):
        tracer = QueryTracer(
            label="worker %d" % spec.get("worker", 0),
            limit=spec.get("trace_limit") or 100_000)
    tables = {table_id: _table_from_spec(payload)
              for table_id, payload in spec["tables"].items()}
    cse = {}
    payloads = []
    for query_spec in spec["queries"]:
        table_id = query_spec["table"]
        query = Query(tables[table_id],
                      predicate=query_spec["predicate"],
                      order_by=query_spec["order_by"],
                      descending=query_spec["descending"],
                      columns=query_spec["columns"],
                      limit=query_spec["limit"])
        result = engine._execute_one(query, cse, tracer,
                                     query_spec.get("index", 0))
        payloads.append((result.rows, result.rids, result.stats))
    return {
        "results": payloads,
        "metrics": engine.metrics_snapshot(),
        "trace": tracer.to_payload() if tracer is not None else None,
    }


def _table_spec(table):
    """Picklable form of a table for a worker process: its live
    column arrays, its RID vector and its indexed columns."""
    rids, columns = table.live_arrays()
    return {"name": table.name, "rids": rids, "columns": columns,
            "indexes": [column for column in table.column_names
                        if table.has_index(column)]}


def _table_from_spec(spec):
    """Rebuild a :func:`_table_spec` table under the same RIDs, so a
    worker's answers are already in the parent's RID space."""
    table = ColumnarTable(spec["name"], spec["columns"],
                          rids=spec["rids"])
    for column in spec["indexes"]:
        table.create_index(column)
    return table
