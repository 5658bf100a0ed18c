"""Experiment E11 — measured sharded scale-out (Section 5.4, made real).

``iso_area.py`` answers the paper's iso-area argument with a
closed-form area/throughput model.  This experiment runs the actual
system instead: the same WHERE-heavy query batch is served by a single
:class:`~repro.db.engine.QueryEngine` and by
:class:`~repro.db.shard.ShardedEngine` at increasing shard counts, and
the speedup is computed from *modeled cycles* — per-query makespan =
max(per-shard WHERE cycles) + interconnect gather traffic + EIS union
merge — so scatter/gather overhead and partition skew are measured,
not assumed.

Two partition balances are swept:

* **uniform** — hash partitioning on the RID; shards hold equal rows
  and near-equal work (the iso-area model's implicit assumption);
* **zipfian** — hash partitioning on a Zipf-distributed column, which
  co-locates equal values and hands the hottest value's rows to one
  shard; the ``skew`` column (max shard cycles x shards / total) shows
  what that costs.

The ``speedup`` column is serial cycles / sum of query makespans; the
CI ``scale-out`` job gates ``uniform x 4 shards >= 2.0``.
"""

import random

from ..baselines.x86 import Q9550
from ..db.bench import build_demo_table
from ..db.columnar import ColumnarTable
from ..db.engine import Query, QueryEngine
from ..db.executor import RID_BITS
from ..db.predicates import Eq, In, Range
from ..db.shard import ShardedEngine
from ..synth.scaling import ManyCoreModel
from ..synth.synthesis import synthesize_config
from ..workloads.sets import generate_zipfian_column
from .base import ExperimentResult

#: Zipf skew of the value-partitioned workload's partition column.
ZIPF_THETA = 1.1
#: Distinct values of the partition column (hash-by-value buckets).
ZIPF_CARDINALITY = 64


def _zipf_table(rows, seed):
    """The demo table plus a Zipf-popular ``key`` partition column."""
    base = build_demo_table(rows=rows, seed=seed)
    columns = {name: base.column(name) for name in base.column_names}
    columns["key"] = generate_zipfian_column(
        rows, ZIPF_CARDINALITY, theta=ZIPF_THETA, seed=seed + 1)
    table = ColumnarTable("demo_zipf", columns)
    for name in columns:
        table.create_index(name)
    return table


def _where_queries(table, count, seed):
    """WHERE-heavy conjunctive query batch (no ORDER BY tail).

    The scale-out story is about the scatterable WHERE work; ORDER BY
    runs serially on the coordinator, so sort-heavy batches would
    measure Amdahl's law rather than the shard fabric.  Shapes are
    deep conjunctions — index ANDing, the paper's motivating use case
    — whose set-operation operands are large (low-cardinality scans)
    while final results are small, so the gather reduce moves little
    data relative to the scattered WHERE work.
    """
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        status = Eq("status", rng.randrange(4))
        region = In("region", tuple(sorted(
            rng.sample(range(8), rng.randint(2, 4)))))
        low = rng.randrange(0, 700)
        width = rng.randrange(150, 300)
        price = Range("price", low, low + width)
        narrow_width = rng.randrange(30, 80)
        low2 = low + rng.randrange(0, width - narrow_width)
        narrow = Range("price", low2, low2 + narrow_width)
        shape = rng.random()
        if shape < 0.6:
            predicate = ((status & region) & price) & narrow
        elif shape < 0.85:
            predicate = (region & price) & narrow
        else:
            predicate = ((status & region) & price) - narrow
        queries.append(Query(table, predicate=predicate))
    return queries


#: Shard count of the ORDER BY comparison rows (partitioned vs serial
#: coordinator sort at the same fan-out).
ORDERBY_SHARDS = 4


def _orderby_queries(table, count, seed):
    """ORDER BY-tailed batch for the partitioned-sort comparison.

    Moderate-selectivity WHERE plus a sort (and usually a LIMIT) —
    the shape the WHERE-heavy batch deliberately avoids.  With
    per-shard sorts folded into the scattered work the sort tail
    parallelizes too; the ``orderby-serial`` row keeps the
    coordinator-side sort for contrast.
    """
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        low = rng.randrange(0, 600)
        price = Range("price", low, low + rng.randrange(250, 400))
        region = In("region", tuple(sorted(rng.sample(range(8), 3))))
        queries.append(Query(table, predicate=price & region,
                             order_by="price",
                             descending=rng.random() < 0.5,
                             limit=rng.choice((10, 25, None))))
    return queries


def _serve_single(table, queries, cost_model):
    engine = QueryEngine(cost_model=cost_model)
    results = engine.execute_batch(queries)
    return sum(result.stats.cycles for result in results)


def _serve_sharded(table, queries, shards, partition_column,
                   cost_model, partitioned_order_by=True):
    engine = ShardedEngine(shards=shards, partitioner="hash",
                           partition_column=partition_column,
                           cost_model=cost_model,
                           partitioned_order_by=partitioned_order_by)
    results = engine.execute_batch(queries)
    makespan = sum(result.makespan_cycles for result in results)
    snapshot = engine.metrics_snapshot()
    shard_cycles = [snapshot["db.shard.%d.cycles" % index]
                    for index in range(shards)]
    total = sum(shard_cycles)
    skew = (max(shard_cycles) * shards / total) if total else 1.0
    return {
        "makespan": makespan,
        "shard_cycles": shard_cycles,
        "skew": skew,
        "skipped": snapshot["db.shard.skipped"],
        "merge_cycles": snapshot["db.shard.gather.merge_cycles"],
        "transfer_cycles":
            snapshot["db.shard.gather.transfer_cycles"],
        "bytes_moved": snapshot["db.shard.gather.bytes_moved"],
    }


def run(seed=42, rows=8192, query_count=24, shard_counts=(1, 2, 4, 8),
        cost_model=False):
    """Measured shard-count sweep, uniform vs Zipfian partitions."""
    workloads = [
        ("uniform", build_demo_table(rows=rows, seed=seed), None),
        ("zipfian", _zipf_table(rows, seed), "key"),
    ]
    rows_out = []
    uniform4 = None
    for label, table, partition_column in workloads:
        queries = _where_queries(table, query_count, seed + 7)
        serial = _serve_single(table, queries, cost_model)
        for shards in shard_counts:
            measured = _serve_sharded(table, queries, shards,
                                      partition_column, cost_model)
            speedup = serial / measured["makespan"] \
                if measured["makespan"] else float("inf")
            if label == "uniform" and shards == 4:
                uniform4 = speedup
            rows_out.append([
                label, shards, round(speedup, 2), serial,
                measured["makespan"], max(measured["shard_cycles"]),
                round(measured["skew"], 2), measured["skipped"],
                measured["merge_cycles"] + measured["transfer_cycles"],
                measured["bytes_moved"]])

    # ORDER BY comparison: the same batch under the partitioned
    # per-shard sort vs the serial coordinator sort.  The table stays
    # within the RID packing budget (pack = key << RID_BITS | rid).
    orderby_rows = min(rows, 1 << RID_BITS)
    orderby_table = build_demo_table(rows=orderby_rows, seed=seed)
    orderby_queries = _orderby_queries(orderby_table, query_count,
                                       seed + 11)
    orderby_serial = _serve_single(orderby_table, orderby_queries,
                                   cost_model)
    orderby_makespans = {}
    for label, partitioned in (("orderby", True),
                               ("orderby-serial", False)):
        measured = _serve_sharded(orderby_table, orderby_queries,
                                  ORDERBY_SHARDS, None, cost_model,
                                  partitioned_order_by=partitioned)
        orderby_makespans[label] = measured["makespan"]
        speedup = orderby_serial / measured["makespan"] \
            if measured["makespan"] else float("inf")
        rows_out.append([
            label, ORDERBY_SHARDS, round(speedup, 2), orderby_serial,
            measured["makespan"], max(measured["shard_cycles"]),
            round(measured["skew"], 2), measured["skipped"],
            measured["merge_cycles"] + measured["transfer_cycles"],
            measured["bytes_moved"]])

    report = synthesize_config("DBA_2LSU_EIS")
    model = ManyCoreModel(report, uncore_share=0.50)
    cores = model.cores_in_area(Q9550.die_mm2)
    notes = [
        "speedup = single-engine cycles / sum of per-query makespans "
        "(max shard WHERE + gather transfer + EIS union merge)",
        "closed-form iso-area model fits %d cores in a Q9550 die at "
        "85%% assumed efficiency; the measured rows above replace "
        "that assumption with scatter/gather accounting" % cores,
        "gather reduce runs on the same EIS union kernel as query "
        "ORs; transfer cycles use the prefetcher's interconnect "
        "model (60-cycle setup + 16 B/cycle)",
    ]
    if orderby_makespans["orderby"]:
        notes.append(
            "partitioned ORDER BY folds per-shard sorts into the "
            "scattered work: %d vs %d makespan cycles at %d shards "
            "(%.2fx; CI gates partitioned < serial)" % (
                orderby_makespans["orderby"],
                orderby_makespans["orderby-serial"], ORDERBY_SHARDS,
                orderby_makespans["orderby-serial"]
                / orderby_makespans["orderby"]))
    if uniform4 is not None:
        notes.insert(0, "uniform 4-shard speedup: %.2fx (CI gates "
                        ">= 2.0x)" % uniform4)
    return ExperimentResult(
        "Scale-out",
        "Measured sharded scale-out vs single-core EIS "
        "(Section 5.4 iso-area, running system)",
        ["workload", "shards", "speedup", "serial_cycles",
         "makespan_cycles", "max_shard_cycles", "skew", "skipped",
         "gather_cycles", "gather_bytes"],
        rows_out,
        notes=notes)
