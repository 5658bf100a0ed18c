#!/usr/bin/env python3
"""End-to-end queries on the database processor.

Runs a small analytics workload over a columnar table whose WHERE
clauses resolve to RID-list set algebra (intersection/union/difference
instructions) and whose ORDER BY runs on the merge-sort instructions —
the complete usage scenario the paper's Section 2.3 motivates — and
compares per-query latency and energy between the DBA_2LSU_EIS
processor and the scalar DBA_1LSU core.
"""

import random

from repro import build_processor, synthesize_config
from repro.db import (ColumnarTable, Eq, In, Query, QueryEngine,
                      QueryExecutor, Range)


def build_orders_table(rows=3000, seed=17):
    rng = random.Random(seed)
    return ColumnarTable("orders", {
        "status": [rng.randrange(4) for _ in range(rows)],
        "region": [rng.randrange(8) for _ in range(rows)],
        "priority": [rng.randrange(10) for _ in range(rows)],
        "amount": [rng.randrange(200_000) for _ in range(rows)],
    })


QUERIES = [
    ("open high-priority EMEA",
     Eq("status", 1) & Eq("region", 2) & Range("priority", 7, 9)),
    ("open or blocked anywhere",
     Eq("status", 1) | Eq("status", 3)),
    ("high-priority outside EMEA/APAC",
     Range("priority", 8, 9) - In("region", [2, 5])),
]


def main():
    table = build_orders_table()
    for column in ("status", "region", "priority"):
        table.create_index(column)

    engines = []
    for name in ("DBA_1LSU", "DBA_2LSU_EIS"):
        processor = build_processor(name)
        report = synthesize_config(name)
        engines.append((name, QueryExecutor(processor), report))

    print("%-34s %14s %14s" % ("query", "DBA_1LSU", "DBA_2LSU_EIS"))
    reference = {}
    for label, predicate in QUERIES:
        cells = []
        for name, executor, report in engines:
            rids, stats = executor.where(table, predicate)
            rids = rids.tolist()
            if label in reference:
                assert rids == reference[label], "engines disagree!"
            reference[label] = rids
            micros = stats.latency_us(report.fmax_mhz)
            cells.append("%8.1f us" % micros)
        print("%-34s %14s %14s   (%d rows)"
              % (label, cells[0], cells[1], len(reference[label])))

    # a full SELECT with ORDER BY ... LIMIT
    print()
    name, executor, report = engines[1]
    rows, stats = executor.select(
        table,
        predicate=Eq("status", 1) & Range("priority", 5, 9),
        order_by="amount", descending=True, limit=5,
        columns=["amount", "priority", "region"])
    print("top-5 open orders by amount (on %s):" % name)
    for row in rows:
        print("  amount=%-7d priority=%d region=%d"
              % (row["amount"], row["priority"], row["region"]))
    print("query used %d index scans, %d set ops, %d sort; "
          "%.1f us, %.3f uJ"
          % (stats.index_scans, stats.set_operations,
             stats.sort_operations, stats.latency_us(report.fmax_mhz),
             stats.energy_uj(report.power_mw, report.fmax_mhz)))

    # batched serving through the QueryEngine: the calibrated cost
    # model predicts the exact ISS cycle counts without simulating,
    # and identical subtrees within the batch are evaluated once
    print()
    engine = QueryEngine(config="DBA_2LSU_EIS")
    hot = Eq("status", 1) & Range("priority", 5, 9)
    batch = [Query(table, hot, order_by="amount",
                   descending=True, limit=5),
             Query(table, hot, limit=20),            # CSE reuse
             Query(table, Eq("region", 2), order_by="amount",
                   limit=10)]
    results = engine.execute_batch(batch)
    snapshot = engine.metrics_snapshot()
    print("engine served %d queries (%d rows):"
          % (len(results), sum(len(r.rows) for r in results)))
    for query, result in zip(batch, results):
        print("  %-42r %5d cycles, %3d rows"
              % (query.predicate, result.stats.cycles,
                 len(result.rows)))
    print("cycles by source: costmodel=%d iss=%d; "
          "cse hits=%d (saved %d cycles)"
          % (snapshot["db.engine.cycles_costmodel"],
             snapshot["db.engine.cycles_iss"],
             snapshot["db.engine.cse.hits"],
             snapshot["db.engine.cycles_saved"]))


if __name__ == "__main__":
    main()
