"""In-repo perf-regression trajectory over ``BENCH_*.json`` artifacts.

The benchmark harness writes one ``BENCH_<name>.json`` per run
(``BENCH_REPORT_DIR``, see benchmarks/conftest.py) — but until now the
artifacts were uploaded from CI and immediately forgotten, so nobody
could tell whether the speed story was compounding (ROADMAP item 5b).
This module keeps the trajectory *in the repository*:

* :func:`collect_reports` gathers a directory of ``BENCH_*.json``
  artifacts and :func:`entry_from_reports` distills each into the
  small set of comparable numbers (cycles, CPI, throughput,
  queries/s, speedups — full artifacts stay in CI storage).
* ``BENCH_history.json`` (:data:`BENCH_HISTORY_SCHEMA`) is an
  append-only list of those entries, one per PR, committed to the
  repo (``repro bench record``).
* :func:`compare` diffs a fresh run against the last recorded entry
  with direction-aware thresholds; ``repro bench compare`` exits
  nonzero on regressions — the CI gate.

Metrics are classified by name.  *Deterministic* metrics (modeled
cycles, instructions, CPI, model-derived throughput, any ``modeled_``
leaf such as ``modeled_speedup``) gate the build: the simulator is
deterministic, so any drift is a real change.  *Noisy* metrics
(wall-clock seconds, queries/s, host speedups) are reported but only
gate with ``--include-noisy`` — CI machines jitter far more than real
regressions of interest.
"""

import json
import os
import re
import time

BENCH_HISTORY_SCHEMA = "repro.bench-history/v1"

_BENCH_FILE = re.compile(r"^BENCH_(?P<slug>[A-Za-z0-9_.-]+)\.json$")

#: Subtrees never mined for comparable metrics (bulky or run-local).
_SKIP_KEYS = frozenset({"metrics", "meta", "engine_metrics", "derived",
                        "stalls", "caches"})

#: Metric leaves pulled from outside the skipped subtrees, by suffix.
_LOWER_BETTER = ("cycles", "seconds", "cpi", "latency_us")
_HIGHER_BETTER = ("per_second", "qps", "speedup", "throughput_meps",
                  "meps", "rate")
#: Wall-clock-derived names: host jitter, not model truth.
_NOISY = ("seconds", "per_second", "qps", "speedup", "rate")


def classify(path):
    """``(direction, noisy)`` for a metric path, or ``None``.

    *direction* is ``"lower"`` or ``"higher"`` (which way is better);
    unclassified paths are not tracked at all.
    """
    leaf = path.rsplit(".", 1)[-1]
    direction = None
    for suffix in _LOWER_BETTER:
        if leaf == suffix or leaf.endswith("_" + suffix):
            direction = "lower"
    for suffix in _HIGHER_BETTER:
        if leaf == suffix or leaf.endswith("_" + suffix):
            direction = "higher"
    if direction is None:
        return None
    noisy = not leaf.startswith("modeled_") and any(
        leaf == suffix or leaf.endswith("_" + suffix)
        for suffix in _NOISY)
    return direction, noisy


def _flatten(payload, prefix=""):
    flat = {}
    for key in sorted(payload):
        if key in _SKIP_KEYS:
            continue
        value = payload[key]
        path = "%s.%s" % (prefix, key) if prefix else key
        if isinstance(value, dict):
            flat.update(_flatten(value, path))
        elif isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            flat[path] = value
    return flat


def extract_metrics(payload):
    """The comparable metric values of one BENCH artifact."""
    # run-report artifacts keep throughput under derived.*; surface it
    # (and CPI) before the generic skip of that bulky subtree.
    extra = {}
    derived = payload.get("derived")
    if isinstance(derived, dict):
        for key in ("throughput_meps", "cpi"):
            value = derived.get(key)
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                extra[key] = value
    flat = _flatten(payload)
    flat.update(extra)
    return {path: value for path, value in sorted(flat.items())
            if classify(path) is not None}


def collect_reports(directory):
    """``{slug: payload}`` for every ``BENCH_*.json`` in *directory*."""
    reports = {}
    for filename in sorted(os.listdir(directory)):
        match = _BENCH_FILE.match(filename)
        if not match:
            continue
        with open(os.path.join(directory, filename)) as handle:
            reports[match.group("slug")] = json.load(handle)
    return reports


def entry_from_reports(reports, label="local", timestamp=None):
    """One history entry distilled from collected artifacts."""
    return {
        "label": label,
        "timestamp": time.time() if timestamp is None else timestamp,
        "benchmarks": {slug: extract_metrics(payload)
                       for slug, payload in sorted(reports.items())},
    }


# -- history file -------------------------------------------------------------

def load_history(path):
    if not os.path.exists(path):
        return {"schema": BENCH_HISTORY_SCHEMA, "entries": []}
    with open(path) as handle:
        history = json.load(handle)
    if history.get("schema") != BENCH_HISTORY_SCHEMA:
        raise ValueError("unsupported history schema %r"
                         % (history.get("schema"),))
    return history


def save_history(path, history):
    with open(path, "w") as handle:
        json.dump(history, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def append_entry(path, entry):
    """Append *entry* to the history file at *path*; returns it."""
    history = load_history(path)
    history["entries"].append(entry)
    save_history(path, history)
    return history


# -- comparison ---------------------------------------------------------------

class BenchComparison:
    """Row-per-metric diff of a fresh run against a baseline entry."""

    def __init__(self, rows, threshold, baseline_label):
        self.rows = rows
        self.threshold = threshold
        self.baseline_label = baseline_label

    @property
    def regressions(self):
        return [row for row in self.rows
                if row["status"] == "regression"]

    @property
    def ok(self):
        return not self.regressions

    def to_dict(self):
        return {"baseline": self.baseline_label,
                "threshold": self.threshold,
                "ok": self.ok,
                "rows": self.rows}

    def format(self):
        lines = ["bench compare vs %r (threshold %.0f%%)"
                 % (self.baseline_label, self.threshold * 100)]
        for row in self.rows:
            change = ""
            if row["baseline"] and row["current"] is not None \
                    and row["baseline"] != 0:
                change = " %+.1f%%" % (
                    (row["current"] / row["baseline"] - 1.0) * 100)
            flags = []
            if row["noisy"]:
                flags.append("noisy")
            if not row["gated"]:
                flags.append("informational")
            note = " [%s]" % ", ".join(flags) if flags else ""
            lines.append(
                "  %-10s %-28s %-22s %s -> %s%s%s"
                % (row["status"], row["benchmark"], row["metric"],
                   row["baseline"], row["current"], change, note))
        lines.append("result: %s (%d regressions)"
                     % ("ok" if self.ok else "REGRESSED",
                        len(self.regressions)))
        return "\n".join(lines)


def compare(current_benchmarks, baseline_entry, threshold=0.2,
            include_noisy=False):
    """Diff current metric values against a baseline history entry.

    Regression means "worse than baseline by more than *threshold*"
    in the metric's better-direction; noisy (wall-clock) metrics only
    gate when *include_noisy* is set.  Benchmarks or metrics present
    on one side only are reported as ``new`` / ``missing`` and never
    gate.
    """
    baseline_benchmarks = baseline_entry.get("benchmarks", {})
    rows = []
    slugs = sorted(set(current_benchmarks) | set(baseline_benchmarks))
    for slug in slugs:
        current = current_benchmarks.get(slug)
        baseline = baseline_benchmarks.get(slug)
        if current is None or baseline is None:
            rows.append({
                "benchmark": slug, "metric": "*",
                "baseline": None if baseline is None else "present",
                "current": None if current is None else "present",
                "direction": None, "noisy": False, "gated": False,
                "status": "missing" if current is None else "new"})
            continue
        for metric in sorted(set(current) | set(baseline)):
            if metric not in current or metric not in baseline:
                rows.append({
                    "benchmark": slug, "metric": metric,
                    "baseline": baseline.get(metric),
                    "current": current.get(metric),
                    "direction": None, "noisy": False, "gated": False,
                    "status": "missing" if metric not in current
                    else "new"})
                continue
            direction, noisy = classify(metric)
            gated = include_noisy or not noisy
            status = _judge(current[metric], baseline[metric],
                            direction, threshold)
            if status == "regression" and not gated:
                status = "noisy-regression"
            rows.append({
                "benchmark": slug, "metric": metric,
                "baseline": baseline[metric],
                "current": current[metric],
                "direction": direction, "noisy": noisy,
                "gated": gated, "status": status})
    return BenchComparison(rows, threshold,
                           baseline_entry.get("label", "?"))


def _judge(current, baseline, direction, threshold):
    if baseline == 0:
        return "ok"
    ratio = current / baseline
    if direction == "lower":
        if ratio > 1.0 + threshold:
            return "regression"
        if ratio < 1.0 - threshold:
            return "improved"
    else:
        if ratio < 1.0 - threshold:
            return "regression"
        if ratio > 1.0 + threshold:
            return "improved"
    return "ok"


def compare_reports_dir(reports_dir, history_path, threshold=0.2,
                        include_noisy=False):
    """Convenience: collect a run directory, diff vs the last entry.

    Raises :class:`FileNotFoundError` if the history has no entries —
    a missing baseline should fail loudly in CI, not pass silently.
    """
    history = load_history(history_path)
    if not history["entries"]:
        raise FileNotFoundError("no baseline entries in %s"
                                % history_path)
    reports = collect_reports(reports_dir)
    current = {slug: extract_metrics(payload)
               for slug, payload in sorted(reports.items())}
    return compare(current, history["entries"][-1],
                   threshold=threshold, include_noisy=include_noisy)
