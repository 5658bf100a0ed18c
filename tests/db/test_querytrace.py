"""Tests for query-level tracing and the cross-process merge.

The satellite contract this file pins down: deterministic span
ordering, dropped-event accounting under tracer overflow, and a merged
``trace_report`` that is byte-identical for ``workers=1`` vs
``workers=4`` serving of the same batch.
"""

import json
import random

import pytest

from repro.db import ColumnarTable, Eq, In, Query, QueryEngine, Range
from repro.telemetry.querytrace import (QUERY_TRACE_REPORT_SCHEMA,
                                        QUERY_TRACE_SCHEMA, QueryTracer,
                                        build_chrome_trace,
                                        trace_report, write_query_trace)
from repro.telemetry.tracer import validate_chrome_trace


@pytest.fixture(scope="module")
def table():
    rng = random.Random(77)
    n = 400
    table = ColumnarTable("orders", {
        "status": [rng.randrange(4) for _ in range(n)],
        "region": [rng.randrange(6) for _ in range(n)],
        "price": [rng.randrange(800) for _ in range(n)],
    })
    for column in ("status", "region", "price"):
        table.create_index(column)
    return table


def distinct_queries(table):
    # distinct shapes: scan-cache/CSE behavior is chunking-dependent
    # for duplicates, and the byte-identical contract needs per-query
    # work that does not depend on which worker served its neighbors
    return [Query(table, Eq("status", 1), order_by="price", limit=5),
            Query(table, Range("price", 100, 400)),
            Query(table, Eq("region", 2) & Range("price", 0, 300)),
            Query(table, In("region", (0, 3)), limit=4),
            Query(table, Eq("status", 2) | Eq("region", 5)),
            Query(table, Range("price", 500, 799), order_by="price"),
            Query(table, Eq("status", 0), limit=2),
            Query(table, Eq("region", 1) - In("status", (0, 1)))]


class TestQueryTracer:
    def test_wall_span_context_manager(self):
        tracer = QueryTracer()
        with tracer.span("parse", query=0):
            pass
        (start, duration, name, args) = tracer.wall_events[0]
        assert name == "parse"
        assert args == {"query": 0}
        assert duration >= 0

    def test_cycle_spans_pack_the_timeline(self):
        tracer = QueryTracer()
        tracer.cycles("scan", 100, "iss", {"query": 0})
        tracer.cycles("sort", 40, "costmodel", {"query": 0})
        assert tracer.cycle_events == [
            (0, 100, "scan", "iss", {"query": 0}),
            (100, 40, "sort", "costmodel", {"query": 0})]
        assert tracer.cycle_cursor == 140

    def test_overflow_counts_drops_and_cursor_advances(self):
        tracer = QueryTracer(limit=2)
        tracer.cycles("a", 10, "iss")
        tracer.cycles("b", 10, "iss")
        tracer.cycles("c", 10, "iss")  # past the limit
        tracer.wall("d", 0, 1)
        assert len(tracer.cycle_events) == 2
        assert tracer.dropped == 2
        # the timeline length stays truthful despite the drops
        assert tracer.cycle_cursor == 30

    def test_payload_roundtrip_and_children(self):
        child = QueryTracer(label="worker 0")
        child.cycles("scan", 10, "iss", {"query": 1})
        parent = QueryTracer()
        parent.add_child(child.to_payload())
        assert parent.children[0]["schema"] == QUERY_TRACE_SCHEMA
        assert parent.children[0]["label"] == "worker 0"
        assert len(parent.payloads()) == 2

    def test_add_child_rejects_foreign_payloads(self):
        tracer = QueryTracer()
        with pytest.raises(ValueError):
            tracer.add_child({"schema": "other"})

    def test_total_dropped_spans_children(self):
        child = QueryTracer(limit=1)
        child.cycles("a", 1, "iss")
        child.cycles("b", 1, "iss")
        parent = QueryTracer()
        parent.add_child(child.to_payload())
        assert parent.total_dropped == 1


class TestChromeExport:
    def build(self):
        parent = QueryTracer(label="engine")
        with parent.span("batch"):
            pass
        child = QueryTracer(label="worker 0", limit=1)
        child.cycles("scan", 25, "costmodel", {"query": 0})
        child.cycles("sort", 5, "costmodel", {"query": 0})  # dropped
        parent.add_child(child.to_payload())
        return parent

    def test_one_process_group_per_worker(self):
        trace = build_chrome_trace(self.build()).to_dict()
        validate_chrome_trace(trace)
        events = trace["traceEvents"]
        names = {(e["pid"], e["args"]["name"]) for e in events
                 if e.get("ph") == "M"
                 and e.get("name") == "process_name"}
        assert {pid for pid, _name in names} == {1, 2}
        assert any(name == "worker 0" for pid, name in names
                   if pid == 2)

    def test_dual_lanes_and_source_attribution(self):
        trace = build_chrome_trace(self.build()).to_dict()
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        lanes = {(e["pid"], e["tid"]) for e in spans}
        assert (1, 0) in lanes  # engine wall clock
        assert (2, 1) in lanes  # worker modeled cycles
        worker_cycles = [e for e in spans if e["pid"] == 2
                         and e["tid"] == 1]
        assert worker_cycles[0]["cat"] == "costmodel"
        assert worker_cycles[0]["args"]["source"] == "costmodel"

    def test_dropped_events_surface_as_instants(self):
        trace = build_chrome_trace(self.build()).to_dict()
        instants = [e for e in trace["traceEvents"]
                    if e.get("ph") == "i"]
        assert any("dropped" in e["name"] for e in instants)

    def test_write_query_trace(self, tmp_path):
        path = write_query_trace(str(tmp_path / "trace.json"),
                                 self.build())
        validate_chrome_trace(json.load(open(path)))


class TestEngineTracing:
    def test_serial_batch_records_both_timelines(
            self, eis_2lsu_partial, table):
        tracer = QueryTracer()
        engine = QueryEngine(processor=eis_2lsu_partial)
        engine.execute_batch(distinct_queries(table), tracer=tracer)
        wall_names = [event[2] for event in tracer.wall_events]
        assert "batch" in wall_names
        assert "query" in wall_names
        assert "plan" in wall_names
        assert any(name.startswith("scan") for name in wall_names)
        assert tracer.cycle_events  # modeled cycles attributed
        sources = {event[3] for event in tracer.cycle_events}
        assert sources <= {"iss", "costmodel"}

    def test_span_ordering_is_deterministic(self, eis_2lsu_partial,
                                            table):
        def run():
            tracer = QueryTracer()
            QueryEngine(processor=eis_2lsu_partial).execute_batch(
                distinct_queries(table), tracer=tracer)
            return ([event[2] for event in tracer.wall_events],
                    [event[:4] for event in tracer.cycle_events])

        assert run() == run()

    def test_parallel_batch_attaches_worker_traces(
            self, eis_2lsu_partial, table):
        tracer = QueryTracer()
        engine = QueryEngine(processor=eis_2lsu_partial)
        engine.execute_batch(distinct_queries(table), workers=2,
                             tracer=tracer)
        assert len(tracer.children) == 2
        trace = build_chrome_trace(tracer).to_dict()
        validate_chrome_trace(trace)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        worker_pids = {e["pid"] for e in spans if e["pid"] >= 2}
        assert len(worker_pids) >= 2
        for pid in worker_pids:
            lanes = {e["tid"] for e in spans if e["pid"] == pid}
            assert lanes == {0, 1}  # wall clock + modeled cycles

    def test_merged_report_byte_identical_across_workers(
            self, eis_2lsu_partial, table):
        queries = distinct_queries(table)

        def serve(workers):
            tracer = QueryTracer()
            QueryEngine(processor=eis_2lsu_partial).execute_batch(
                queries, workers=workers, tracer=tracer)
            report = trace_report(tracer)
            assert report["schema"] == QUERY_TRACE_REPORT_SCHEMA
            # leaf-only queries without ORDER BY charge no modeled
            # cycles, so only the cycle-charged subset appears
            assert 0 < report["queries"] <= len(queries)
            return json.dumps(report, sort_keys=True)

        assert serve(1) == serve(4)
