"""Meta-benchmark: Z-set delta maintenance vs rebuild-from-scratch.

Not a paper experiment — this tracks the reproduction's own columnar
storage layer (ISSUE 10): a :class:`repro.db.columnar.ColumnarTable`
absorbing the shared Zipfian delta stream through incremental
``apply_delta`` (searchsorted index merges, tombstone deletes) against
the pre-columnar behaviour of rebuilding the table and every secondary
index from scratch after each batch.  Both paths must end in the same
state (the benchmark asserts RID-for-RID and value-for-value parity);
what incrementality buys is wall-clock, gated at
:data:`MIN_DELTA_SPEEDUP`.  A second gate covers the one-off index
*build*: the argsort build of a columnar table and its indexes against
a pure-Python row-oriented build at the same size
(:func:`_row_index_build`).

When ``BENCH_REPORT_DIR`` is set the summary is written to
``BENCH_db_delta.json`` (consumed by the CI ``delta`` gate and
``repro bench record``; see docs/STORAGE.md).
"""

import json
import os
import time

import pytest

from repro.core.common import SENTINEL
from repro.db.columnar import ColumnarTable, DeltaBatch
from repro.workloads.sets import generate_delta_stream

#: The CI gates: update-stream and index-build speedups.
MIN_DELTA_SPEEDUP = 5.0
MIN_INDEX_BUILD_SPEEDUP = 3.0

ROWS = 120_000
BATCHES = 24
INSERTS_PER_BATCH = 512
DELETES_PER_BATCH = 256
COLUMNS = {"status": 4, "region": 8, "price": 1000}


@pytest.fixture(scope="module")
def stream():
    return generate_delta_stream(
        ROWS, BATCHES, COLUMNS, inserts_per_batch=INSERTS_PER_BATCH,
        deletes_per_batch=DELETES_PER_BATCH, seed=42)


def _build_columnar(columns, rids=None):
    table = ColumnarTable("orders", columns, rids=rids)
    for name in COLUMNS:
        table.create_index(name)
    return table


def _row_index_build(columns):
    """The index-build baseline: a pure-Python row-oriented build.

    Per column: copy and validate the values, sort the ``(value,
    rid)`` pairs, then record the distinct keys and each key's offset
    into the RID array — a clustered postings layout answered by
    bisect over the keys.
    """
    indexes = {}
    for name, values in columns.items():
        values = list(values)
        for value in values:
            if not 0 <= value < SENTINEL:
                raise ValueError("%s: values must be 32-bit below the "
                                 "sentinel" % name)
        pairs = sorted((value, rid) for rid, value in enumerate(values))
        keys = []
        offsets = []
        previous = None
        for position, (value, _rid) in enumerate(pairs):
            if value != previous:
                keys.append(value)
                offsets.append(position)
                previous = value
        offsets.append(len(pairs))
        indexes[name] = (keys, offsets, [rid for _value, rid in pairs])
    return indexes


def _write_summary(payload):
    directory = os.environ.get("BENCH_REPORT_DIR")
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "BENCH_db_delta.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _run_incremental(initial, batches):
    table = _build_columnar(initial)
    started = time.perf_counter()
    for batch in batches:
        table.apply_delta(batch)
    return table, time.perf_counter() - started


def _run_rebuild(initial, specs):
    """The baseline without delta maintenance: every batch rebuilds
    everything.

    Plain-Python column lists absorb the batch, then the table and all
    three indexes are constructed from scratch.
    """
    columns = {name: list(values) for name, values in initial.items()}
    rids = list(range(len(columns["status"])))
    next_rid = len(rids)
    table = None
    started = time.perf_counter()
    for spec in specs:
        inserts = spec.get("insert", {})
        count = len(inserts.get("status", ()))
        for name, values in inserts.items():
            columns[name].extend(values)
        rids.extend(range(next_rid, next_rid + count))
        next_rid += count
        dead = set(spec["delete_rids"])
        if dead:
            keep = [position for position, rid in enumerate(rids)
                    if rid not in dead]
            rids = [rids[position] for position in keep]
            columns = {name: [values[position] for position in keep]
                       for name, values in columns.items()}
        table = _build_columnar(columns, rids=rids)
    return table, time.perf_counter() - started


def test_delta_maintenance_vs_rebuild(benchmark, stream):
    """Incremental apply_delta vs per-batch full reconstruction."""
    initial, specs = stream
    batches = [DeltaBatch.from_spec(spec) for spec in specs]

    def serve():
        return _run_incremental(initial, batches)

    incremental, _last = benchmark.pedantic(serve, rounds=3,
                                            iterations=1,
                                            warmup_rounds=1)
    _table, incremental_seconds = _run_incremental(initial, batches)
    rebuilt, rebuild_seconds = _run_rebuild(initial, specs)

    assert incremental.all_rids().tolist() \
        == rebuilt.all_rids().tolist(), \
        "incremental RID space diverged from the rebuild"
    for name in COLUMNS:
        assert incremental.column(name) == rebuilt.column(name), \
            "column %s diverged" % name
    probe = incremental.index("price")
    assert probe.scan_range(100, 300).tolist() \
        == rebuilt.index("price").scan_range(100, 300).tolist()
    assert probe.delta_merges > 0

    speedup = rebuild_seconds / incremental_seconds \
        if incremental_seconds else float("inf")

    started = time.perf_counter()
    _row_index_build(initial)
    row_build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    _build_columnar(initial)
    columnar_build_seconds = time.perf_counter() - started
    index_build_speedup = row_build_seconds / columnar_build_seconds \
        if columnar_build_seconds else float("inf")

    summary = {
        "schema": "repro.bench-db-delta/v1",
        "rows": ROWS,
        "batches": BATCHES,
        "inserts_per_batch": INSERTS_PER_BATCH,
        "deletes_per_batch": DELETES_PER_BATCH,
        "parity": True,
        "incremental_seconds": incremental_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": speedup,
        "row_index_build_seconds": row_build_seconds,
        "columnar_index_build_seconds": columnar_build_seconds,
        "index_build_speedup": index_build_speedup,
        "final_rows": incremental.row_count,
        "rid_limit": incremental.rid_limit(),
        "compactions": incremental.compactions,
        "delta_merges": probe.delta_merges,
    }
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["index_build_speedup"] = \
        round(index_build_speedup, 2)
    benchmark.extra_info["final_rows"] = incremental.row_count
    path = _write_summary(summary)
    if path:
        benchmark.extra_info["report"] = path

    assert speedup >= MIN_DELTA_SPEEDUP, (
        "incremental delta maintenance %.2fx over rebuild is below "
        "the %.1fx gate" % (speedup, MIN_DELTA_SPEEDUP))
    assert index_build_speedup >= MIN_INDEX_BUILD_SPEEDUP, (
        "columnar index build %.2fx over the row-oriented build is "
        "below the %.1fx gate"
        % (index_build_speedup, MIN_INDEX_BUILD_SPEEDUP))
