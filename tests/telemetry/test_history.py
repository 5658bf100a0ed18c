"""Tests for the BENCH_history.json perf trajectory and compare gate."""

import json

import pytest

from repro.telemetry.history import (BENCH_HISTORY_SCHEMA, append_entry,
                                     classify, collect_reports, compare,
                                     compare_reports_dir,
                                     entry_from_reports,
                                     extract_metrics, load_history)

SAMPLE = {
    "benchmark": "simulator",
    "cycles": 1000,
    "seconds": 0.5,
    "fast": {"sim_instructions_per_second": 40000.0},
    "derived": {"throughput_meps": 2.5, "cpi": 1.25},
    "meta": {"cycles": 999999},  # skipped subtree must not leak
}


class TestClassify:
    def test_deterministic_lower_better(self):
        assert classify("cycles") == ("lower", False)
        assert classify("sort.cycles") == ("lower", False)
        assert classify("cpi") == ("lower", False)
        assert classify("latency_us") == ("lower", False)

    def test_noisy_metrics_flagged(self):
        assert classify("seconds") == ("lower", True)
        assert classify("fast.sim_instructions_per_second") \
            == ("higher", True)
        assert classify("speedup") == ("higher", True)
        assert classify("queries_per_second") == ("higher", True)

    def test_model_throughput_is_deterministic(self):
        assert classify("throughput_meps") == ("higher", False)

    def test_modeled_speedup_is_gated(self):
        """A ``modeled_`` figure is deterministic whatever its suffix;
        the host-timed speedup beside it stays noisy."""
        assert classify("db_shard.modeled_speedup") == ("higher", False)
        assert classify("db_engine.speedup") == ("higher", True)
        baseline = {"label": "base", "benchmarks": {
            "db_shard": {"modeled_speedup": 8.0},
            "db_engine": {"speedup": 20.0}}}
        rows = {row["metric"]: row for row in compare(
            {"db_shard": {"modeled_speedup": 2.5},
             "db_engine": {"speedup": 10.0}}, baseline).rows}
        assert rows["modeled_speedup"]["gated"]
        assert rows["modeled_speedup"]["status"] == "regression"
        assert not rows["speedup"]["gated"]
        assert rows["speedup"]["status"] == "noisy-regression"

    def test_unknown_names_untracked(self):
        assert classify("rows") is None
        assert classify("schema") is None


class TestExtract:
    def test_extracts_comparable_leaves_only(self):
        metrics = extract_metrics(SAMPLE)
        assert metrics == {
            "cycles": 1000,
            "seconds": 0.5,
            "fast.sim_instructions_per_second": 40000.0,
            "throughput_meps": 2.5,
            "cpi": 1.25,
        }

    def test_skipped_subtrees_do_not_leak(self):
        assert "meta.cycles" not in extract_metrics(SAMPLE)


class TestHistoryFile:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_history.json")
        entry = entry_from_reports({"demo": SAMPLE}, label="pr-1",
                                   timestamp=1.0)
        history = append_entry(path, entry)
        assert history["schema"] == BENCH_HISTORY_SCHEMA
        loaded = load_history(path)
        assert len(loaded["entries"]) == 1
        assert loaded["entries"][0]["label"] == "pr-1"
        assert loaded["entries"][0]["benchmarks"]["demo"]["cycles"] \
            == 1000

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope", "entries": []}))
        with pytest.raises(ValueError):
            load_history(str(path))

    def test_collect_reports_ignores_non_bench_files(self, tmp_path):
        (tmp_path / "BENCH_demo.json").write_text(json.dumps(SAMPLE))
        (tmp_path / "notes.json").write_text("{}")
        reports = collect_reports(str(tmp_path))
        assert list(reports) == ["demo"]


class TestCompare:
    def baseline(self):
        return entry_from_reports({"demo": SAMPLE}, label="base",
                                  timestamp=0.0)

    def test_identical_run_is_ok(self):
        comparison = compare({"demo": extract_metrics(SAMPLE)},
                             self.baseline())
        assert comparison.ok
        assert all(row["status"] in ("ok",) or not row["gated"]
                   for row in comparison.rows)

    def test_cycle_regression_trips_the_gate(self):
        current = extract_metrics(SAMPLE)
        current["cycles"] = int(current["cycles"] * 1.25)  # +25%
        comparison = compare({"demo": current}, self.baseline(),
                             threshold=0.2)
        assert not comparison.ok
        (row,) = comparison.regressions
        assert row["metric"] == "cycles"

    def test_improvement_is_not_a_regression(self):
        current = extract_metrics(SAMPLE)
        current["cycles"] = 500
        current["throughput_meps"] = 5.0
        comparison = compare({"demo": current}, self.baseline())
        assert comparison.ok
        statuses = {row["metric"]: row["status"]
                    for row in comparison.rows}
        assert statuses["cycles"] == "improved"
        assert statuses["throughput_meps"] == "improved"

    def test_noisy_regression_informational_by_default(self):
        current = extract_metrics(SAMPLE)
        current["seconds"] = current["seconds"] * 2  # wall-clock noise
        comparison = compare({"demo": current}, self.baseline())
        assert comparison.ok
        statuses = {row["metric"]: row["status"]
                    for row in comparison.rows}
        assert statuses["seconds"] == "noisy-regression"

    def test_include_noisy_gates_wall_clock(self):
        current = extract_metrics(SAMPLE)
        current["seconds"] = current["seconds"] * 2
        comparison = compare({"demo": current}, self.baseline(),
                             include_noisy=True)
        assert not comparison.ok

    def test_new_and_missing_never_gate(self):
        comparison = compare({"other": {"cycles": 1}}, self.baseline())
        assert comparison.ok
        statuses = {row["benchmark"]: row["status"]
                    for row in comparison.rows}
        assert statuses["demo"] == "missing"
        assert statuses["other"] == "new"

    def test_format_and_to_dict(self):
        comparison = compare({"demo": extract_metrics(SAMPLE)},
                             self.baseline())
        text = comparison.format()
        assert "bench compare vs 'base'" in text
        assert "result: ok" in text
        payload = comparison.to_dict()
        assert payload["ok"] is True
        assert payload["baseline"] == "base"


class TestCompareReportsDir:
    def test_end_to_end_gate(self, tmp_path):
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "BENCH_demo.json").write_text(json.dumps(SAMPLE))
        history = str(tmp_path / "BENCH_history.json")
        append_entry(history, entry_from_reports(
            collect_reports(str(reports)), label="seed", timestamp=0.0))

        comparison = compare_reports_dir(str(reports), history)
        assert comparison.ok

        regressed = dict(SAMPLE, cycles=int(SAMPLE["cycles"] * 1.25))
        (reports / "BENCH_demo.json").write_text(json.dumps(regressed))
        comparison = compare_reports_dir(str(reports), history)
        assert not comparison.ok

    def test_empty_history_fails_loudly(self, tmp_path):
        reports = tmp_path / "reports"
        reports.mkdir()
        with pytest.raises(FileNotFoundError):
            compare_reports_dir(str(reports),
                                str(tmp_path / "none.json"))
