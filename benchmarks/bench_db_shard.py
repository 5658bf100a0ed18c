"""Meta-benchmark: sharded scale-out serving vs the single engine.

Not a paper experiment — this tracks the reproduction's own sharded
serving path: :class:`repro.db.shard.ShardedEngine` against the single
:class:`repro.db.engine.QueryEngine` on the scale-out WHERE workload.
The sharded path must agree RID-for-RID with the single engine (the
benchmark asserts it); what it buys is *modeled* speedup — serial
cycles over summed per-query makespans (max shard WHERE + interconnect
gather + EIS union merge).  When ``BENCH_REPORT_DIR`` is set the
summary is written to ``BENCH_db_shard.json`` (consumed by the CI
``scale-out`` gate and ``repro bench record``; see docs/SHARDING.md).
"""

import json
import os

from repro.db.engine import QueryEngine
from repro.db.shard import ShardedEngine
from repro.experiments.scale_out import _where_queries, build_demo_table

#: The CI gate: modeled 4-shard speedup on the uniform workload.
MIN_MODELED_SPEEDUP = 2.0

ROWS = 8192
QUERIES = 24
SHARDS = 4


def _write_summary(payload):
    directory = os.environ.get("BENCH_REPORT_DIR")
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "BENCH_db_shard.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def test_sharded_batch_serving(benchmark):
    """4-shard scatter/gather vs single-engine serving, cost model."""
    table = build_demo_table(rows=ROWS, seed=42)
    batch = _where_queries(table, QUERIES, seed=49)

    single = QueryEngine()
    single_results = single.execute_batch(batch)
    serial_cycles = sum(r.stats.cycles for r in single_results)

    def fresh_engine():
        # Every round is cold: a new engine, partitioned outside the
        # timed region, so makespan and every counter below describe
        # the same single round.
        engine = ShardedEngine(shards=SHARDS)
        engine.shards_for(table)
        return (engine,), {}

    def serve(engine):
        return engine, engine.execute_batch(batch)

    engine, results = benchmark.pedantic(serve, setup=fresh_engine,
                                         rounds=3, iterations=1,
                                         warmup_rounds=1)
    assert [r.rids for r in results] \
        == [r.rids for r in single_results], \
        "sharded RIDs diverged from the single engine"

    makespan_cycles = sum(r.makespan_cycles for r in results)
    modeled_speedup = serial_cycles / makespan_cycles \
        if makespan_cycles else 0.0
    snapshot = engine.metrics_snapshot()
    shard_cycles = [snapshot["db.shard.%d.cycles" % index]
                    for index in range(SHARDS)]
    total = sum(shard_cycles)
    summary = {
        "schema": "repro.bench-db-shard/v1",
        "rows": ROWS,
        "queries": QUERIES,
        "shards": SHARDS,
        "rid_parity": True,
        "serial_cycles": serial_cycles,
        "makespan_cycles": makespan_cycles,
        "modeled_speedup": modeled_speedup,
        "skew": (max(shard_cycles) * SHARDS / total) if total else 1.0,
        "skipped": snapshot["db.shard.skipped"],
        "gather_merge_cycles":
            snapshot["db.shard.gather.merge_cycles"],
        "gather_transfer_cycles":
            snapshot["db.shard.gather.transfer_cycles"],
        "gather_bytes": snapshot["db.shard.gather.bytes_moved"],
    }
    benchmark.extra_info["modeled_speedup"] = round(modeled_speedup, 2)
    benchmark.extra_info["makespan_cycles"] = makespan_cycles
    benchmark.extra_info["skew"] = round(summary["skew"], 2)
    path = _write_summary(summary)
    if path:
        benchmark.extra_info["report"] = path

    assert modeled_speedup >= MIN_MODELED_SPEEDUP, (
        "modeled %d-shard speedup %.2fx below the %.1fx gate"
        % (SHARDS, modeled_speedup, MIN_MODELED_SPEEDUP))
