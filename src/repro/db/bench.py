"""Query-engine benchmark workload and harness.

Shared by ``repro db bench``, ``benchmarks/bench_db_engine.py`` and the
CI throughput gate: builds a deterministic table + query batch, serves
it through the cost-model engine, through a pure-ISS engine, and
through the ISS path the engine replaced (a per-query
:class:`~repro.db.executor.QueryExecutor` loop — no scan cache, no
common-subexpression reuse).  The two engines must return identical
RIDs and cycle counts query-for-query; the reported speedup is the
cost-model engine against the plain ISS serving path.
"""

import random
import time

from ..configs.catalog import build_processor
from .engine import Query, QueryEngine
from .executor import QueryExecutor
from .columnar import ColumnarTable
from .predicates import Eq, In, Range

COLUMNS = ("status", "region", "price")


def build_demo_table(rows=800, seed=42):
    """A deterministic three-column table with all indexes built."""
    rng = random.Random(seed)
    table = ColumnarTable("orders", {
        "status": [rng.randrange(4) for _ in range(rows)],
        "region": [rng.randrange(8) for _ in range(rows)],
        "price": [rng.randrange(1000) for _ in range(rows)],
    })
    for column in COLUMNS:
        table.create_index(column)
    return table


def demo_queries(table, count=32, seed=7):
    """A deterministic query batch with mixed shapes.

    Roughly a quarter of the batch repeats an earlier query verbatim
    (the CSE / scan-cache case of batch traffic); the rest vary the
    predicate parameters.
    """
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        if queries and rng.random() < 0.25:
            earlier = rng.choice(queries)
            queries.append(Query(table, earlier.predicate,
                                 order_by=earlier.order_by,
                                 limit=earlier.limit))
            continue
        predicate = (Eq("status", rng.randrange(4))
                     & Range("price", rng.randrange(300),
                             300 + rng.randrange(700)))
        if rng.random() < 0.5:
            predicate = predicate | Eq("region", rng.randrange(8))
        if rng.random() < 0.25:
            predicate = predicate - In("region",
                                       (rng.randrange(8),
                                        rng.randrange(8)))
        order_by = "price" if rng.random() < 0.7 else None
        # serving traffic is LIMIT-heavy; the occasional full fetch
        # keeps the materialization path honest
        limit = None if rng.random() < 0.2 else rng.choice((10, 50))
        queries.append(Query(table, predicate, order_by=order_by,
                             limit=limit))
    return queries


def _serve_rounds(queries, repeat, **engine_kwargs):
    """Serve the batch *repeat* times on fresh engines; best round."""
    best = None
    last = None
    for _ in range(repeat):
        engine = QueryEngine(**engine_kwargs)
        started = time.perf_counter()
        results = engine.execute_batch(queries)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        last = (engine, results)
    engine, results = last
    return engine, results, best


def _serve_baseline(table, queries, repeat, config):
    """The pre-engine ISS serving path: one ``select`` per query.

    A fresh :class:`QueryExecutor` per round, no scan cache, no
    cross-query reuse — every query pays the full simulator cost.
    """
    best = None
    rows = None
    for _ in range(repeat):
        executor = QueryExecutor(build_processor(config))
        started = time.perf_counter()
        served = [executor.select(query.table, query.predicate,
                                  order_by=query.order_by,
                                  descending=query.descending,
                                  columns=query.columns,
                                  limit=query.limit)[0]
                  for query in queries]
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        rows = served
    return rows, best


def _serve_sharded(queries, repeat, shards, **engine_kwargs):
    """Serve the batch *repeat* times on fresh sharded engines."""
    from .shard import ShardedEngine
    best = None
    last = None
    for _ in range(repeat):
        engine = ShardedEngine(shards=shards, **engine_kwargs)
        started = time.perf_counter()
        results = engine.execute_batch(queries)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        last = (engine, results)
    engine, results = last
    return engine, results, best


def run_bench(config="DBA_2LSU_EIS", rows=1600, queries=64, repeat=3,
              seed=42, log=None, workers=1, trace_out=None, shards=0):
    """Benchmark engine-vs-ISS batch serving; returns a JSON-able dict.

    With *trace_out*, one extra (untimed) serving pass runs after the
    timed rounds with a :class:`~repro.telemetry.querytrace.
    QueryTracer` attached and *workers* processes, and the merged
    Perfetto trace is written there — the timed rounds stay unperturbed
    by tracing overhead.

    Calibration happens on a warmup batch so the timed rounds measure
    steady-state serving, matching how a long-lived engine behaves.
    The speedup denominator is the plain ISS serving path (a
    per-query executor loop); parity is checked two ways — RIDs and
    cycles query-for-query against an ISS-backed engine, and row
    payloads against the baseline loop.  The fast path gets three
    rounds per ISS round: its rounds are an order of magnitude
    shorter, so scheduling noise needs more best-of samples to reach
    the same confidence.
    """
    table = build_demo_table(rows=rows, seed=seed)
    batch = demo_queries(table, count=queries, seed=seed + 1)
    if log:
        log("db bench: %d queries over %d rows on %s (best of %d)"
            % (len(batch), rows, config, repeat))

    QueryEngine(config=config).execute_batch(batch)  # calibrate

    engine, fast_results, fast_time = _serve_rounds(
        batch, repeat * 3, config=config, cost_model=True)
    iss_engine, iss_results, iss_engine_time = _serve_rounds(
        batch, repeat, config=config, cost_model=False)
    baseline_rows, iss_time = _serve_baseline(table, batch, repeat,
                                              config)

    rid_parity = all(fast.rids == ref.rids for fast, ref
                     in zip(fast_results, iss_results))
    cycle_parity = all(fast.stats.cycles == ref.stats.cycles
                       for fast, ref in zip(fast_results, iss_results))
    row_parity = all(fast.rows == ref for fast, ref
                     in zip(fast_results, baseline_rows))
    fast_qps = len(batch) / fast_time if fast_time else 0.0
    iss_qps = len(batch) / iss_time if iss_time else 0.0
    report = {
        "schema": "repro.bench-db-engine/v1",
        "config": config,
        "rows": rows,
        "queries": len(batch),
        "repeat": repeat,
        "seed": seed,
        "rid_parity": rid_parity,
        "cycle_parity": cycle_parity,
        "row_parity": row_parity,
        "costmodel": {
            "seconds": fast_time,
            "queries_per_second": fast_qps,
        },
        "iss": {
            "seconds": iss_time,
            "queries_per_second": iss_qps,
        },
        "iss_engine": {
            "seconds": iss_engine_time,
            "queries_per_second": (len(batch) / iss_engine_time
                                   if iss_engine_time else 0.0),
        },
        "speedup": fast_qps / iss_qps if iss_qps else 0.0,
        "engine_metrics": engine.metrics_snapshot(),
    }
    if shards and shards > 1:
        sharded, shard_results, shard_time = _serve_sharded(
            batch, repeat, shards, config=config, cost_model=True)
        shard_rid_parity = all(fast.rids == got.rids for fast, got
                               in zip(fast_results, shard_results))
        serial_cycles = sum(result.stats.cycles
                            for result in fast_results)
        makespan_cycles = sum(result.makespan_cycles
                              for result in shard_results)
        snapshot = sharded.metrics_snapshot()
        shard_cycles = [snapshot["db.shard.%d.cycles" % index]
                        for index in range(shards)]
        total = sum(shard_cycles)
        report["shard"] = {
            "shards": shards,
            "partitioner": sharded.partitioner.describe(),
            "rid_parity": shard_rid_parity,
            "seconds": shard_time,
            "queries_per_second": (len(batch) / shard_time
                                   if shard_time else 0.0),
            "serial_cycles": serial_cycles,
            "makespan_cycles": makespan_cycles,
            "modeled_speedup": (serial_cycles / makespan_cycles
                                if makespan_cycles else 0.0),
            "shard_cycles": shard_cycles,
            "skew": (max(shard_cycles) * shards / total
                     if total else 1.0),
            "skipped": snapshot["db.shard.skipped"],
            "gather_merge_cycles":
                snapshot["db.shard.gather.merge_cycles"],
            "gather_transfer_cycles":
                snapshot["db.shard.gather.transfer_cycles"],
            "gather_bytes": snapshot["db.shard.gather.bytes_moved"],
        }
        if log:
            log("  sharded (x%d):     %8.1f queries/s (%.4f s), "
                "modeled %.2fx, skew %.2f, rid parity: %s"
                % (shards, report["shard"]["queries_per_second"],
                   shard_time, report["shard"]["modeled_speedup"],
                   report["shard"]["skew"], shard_rid_parity))
    if trace_out:
        from ..telemetry.querytrace import (QueryTracer,
                                            write_query_trace)

        tracer = QueryTracer(label="db bench")
        trace_engine = QueryEngine(config=config, cost_model=True)
        trace_engine.execute_batch(batch, workers=workers,
                                   tracer=tracer)
        write_query_trace(trace_out, tracer)
        report["trace"] = {
            "path": trace_out,
            "workers": workers,
            "processes": 1 + len(tracer.children),
            "dropped": tracer.total_dropped,
        }
        if log:
            log("  trace: %d processes -> %s"
                % (report["trace"]["processes"], trace_out))
    if log:
        log("  cost-model engine: %8.1f queries/s (%.4f s)"
            % (fast_qps, fast_time))
        log("  iss engine:        %8.1f queries/s (%.4f s)"
            % (report["iss_engine"]["queries_per_second"],
               iss_engine_time))
        log("  iss baseline:      %8.1f queries/s (%.4f s)"
            % (iss_qps, iss_time))
        log("  speedup:    %.1fx  (rid parity: %s, cycle parity: %s, "
            "row parity: %s)"
            % (report["speedup"], rid_parity, cycle_parity,
               row_parity))
    return report
