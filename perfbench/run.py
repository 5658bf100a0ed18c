"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_cold --seed 1 \\
        --seconds 15 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports the per-layer metrics of a separate traced run.  A wrong
answer prints the reason to standard error and exits with status 1
without a result line.  See ``perfbench/README.md``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.core import costmodel  # noqa: E402

from hostspeed import NOMINAL_S, reference_seconds  # noqa: E402
from layers import LAYERS, LayerTracer, traced  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from workloads import WORKLOADS, Checker  # noqa: E402

#: Set-up is repeated this many times per run and its median reported:
#: five times before the timed loop and four times after it, so that
#: the median spans the run's host phases and not one moment of it.
SETUP_BEFORE, SETUP_AFTER = 5, 4
#: The host-time metrics are medians over at least this many windows.
MIN_WINDOWS = 5
#: The host reference (see :mod:`hostspeed`) is timed after the first
#: step that ends this long after its last timing, and after a window
#: that closes without one, so a window's reference spans it.
REFERENCE_EVERY_S = 0.25
INJECTIONS = ("drop-rid", "cycle-off-by-one")


class Totals:
    """Steps added up over one loop, and cut into windows.

    A window is a run of consecutive steps holding at least
    ``window_ops`` latency samples.  The host-time metrics are medians
    over windows, so a slow phase of the shared host that covers less
    than half of the run moves them little.  A trailing partial window
    is left out.  :func:`add` returns the window the step went into.
    """

    def __init__(self, window_ops):
        self.window_ops = window_ops
        self.windows = []
        self._open = None
        self.steps = 0
        self.seconds = 0.0
        self.samples = 0
        self.attempted = self.refused = 0
        self.answered = self.units = 0
        self.prefix_answered = self.prefix_cycles = 0
        self.prefix_makespan = 0

    def add(self, done, in_prefix):
        self.steps += 1
        self.seconds += done.seconds
        self.samples += len(done.latencies)
        self.attempted += done.attempted
        self.refused += done.refused
        self.answered += done.answered
        self.units += done.units
        if in_prefix:
            self.prefix_answered += done.answered
            self.prefix_cycles += done.cycles
            self.prefix_makespan += done.makespan
        if self._open is None:
            self._open = Window()
        window = self._open
        window.add(done)
        if len(window.latencies) >= self.window_ops:
            window.closed = True
            self.windows.append(window)
            self._open = None
        return window


class Window:
    """Program seconds, ``qps`` units and latencies of a few steps, and
    the host reference timings taken between them."""

    __slots__ = ("seconds", "units", "latencies", "references", "closed")

    def __init__(self):
        self.seconds = 0.0
        self.units = 0
        self.latencies = []
        self.references = []
        self.closed = False

    @property
    def reference(self):
        return statistics.median(self.references)

    def add(self, done):
        self.seconds += done.seconds
        self.units += done.units
        self.latencies.extend(done.latencies)


def serve(workload, state, checker, steps=None, seconds=None):
    """Serve steps until *steps* are done, or *seconds* have passed
    and the deterministic prefix is complete."""
    totals = Totals(workload.window_ops)
    started = referenced = time.perf_counter()
    index = 0
    while True:
        if steps is not None and index >= steps:
            break
        if steps is None and index >= workload.prefix_steps \
                and time.perf_counter() - started >= seconds:
            break
        done = workload.step(state, index, checker)
        if done is None:  # input stream exhausted
            break
        window = totals.add(done, index < workload.prefix_steps)
        if time.perf_counter() - referenced >= REFERENCE_EVERY_S \
                or window.closed and not window.references:
            window.references.append(reference_seconds())
            referenced = time.perf_counter()
        index += 1
    if totals.steps < min(workload.prefix_steps, steps or 1 << 30):
        raise CheckFailed("%s: inputs ran out before the deterministic "
                          "prefix of %d steps" % (workload.name,
                                                  workload.prefix_steps))
    return totals


def timed_setup(workload, inputs):
    """One set-up from scratch; ``(state, seconds, reference)``."""
    gc.collect()  # the previous repetition's garbage is not set-up
    began = time.perf_counter()
    state = workload.setup(inputs)
    seconds = time.perf_counter() - began
    return state, seconds, reference_seconds()


def _percentile(values, percentile):
    """The *percentile* of *values*; 100 is the largest."""
    if percentile >= 100:
        return max(values)
    return statistics.quantiles(values, n=100)[percentile - 1]


def _windowed(windows, measure):
    """Median over *windows* of *measure*, raw and at nominal host
    speed (see :mod:`hostspeed`)."""
    raw = statistics.median(measure(window, 1.0) for window in windows)
    nominal = statistics.median(
        measure(window, NOMINAL_S / window.reference)
        for window in windows)
    return nominal, raw


def end_to_end(totals, tail_percentile):
    """``(metrics, raw)``: the end-to-end metrics, and the host-time
    ones also as measured, before the host-speed scaling."""
    windows = totals.windows
    if len(windows) < MIN_WINDOWS:
        raise CheckFailed("%d windows of %d operations; a run needs at "
                          "least %d" % (len(windows), totals.window_ops,
                                        MIN_WINDOWS))
    qps = _windowed(windows, lambda window, scale:
                    window.units / (window.seconds * scale))
    p50 = _windowed(windows, lambda window, scale:
                    1000.0 * scale * statistics.median(window.latencies))
    tail = _windowed(windows, lambda window, scale:
                     1000.0 * scale * _percentile(window.latencies,
                                                  tail_percentile))
    metrics = {
        "qps": (qps[0], "1/s"),
        "p50_ms": (p50[0], "ms"),
        "tail_ms": (tail[0], "ms"),
        "answered_frac": (totals.answered / totals.attempted, "frac"),
        "modeled_cycles_per_query":
            (totals.prefix_cycles / max(totals.prefix_answered, 1),
             "cycles"),
        "makespan_cycles_per_query":
            (totals.prefix_makespan / max(totals.prefix_answered, 1),
             "cycles"),
        "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   / 1024.0, "MB"),
    }
    raw = {"qps": qps[1], "p50_ms": p50[1], "tail_ms": tail[1],
           "reference_ms": 1000.0 * statistics.median(
               window.reference for window in windows)}
    return metrics, raw


def _sum(diff, suffix):
    return sum(value for name, value in diff.items()
               if name.endswith(suffix))


def _shard_cache(diff, counter):
    return sum(value for name, value in diff.items()
               if name.startswith("db.shard.")
               and name.endswith(".cache." + counter))


def per_layer(tracer, diff, model_diff, totals):
    """The traced pass's layer metrics: self-time shares and counts."""
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_frac"] = (
            tracer.self_s[layer] / totals.seconds, "frac")
    counts = tracer.counts
    for name in ("plan.calls", "plan.refused", "scan.calls",
                 "scan.rids_out", "set.result.calls", "set.predict.calls",
                 "set.predict.elements_in", "sort.calls",
                 "sort.elements_in", "fetch.rows"):
        metrics[name] = (counts[name], "count")
    hits = _sum(diff, "scan_cache.hits") + _shard_cache(diff, "hits")
    misses = _sum(diff, "scan_cache.misses") \
        + _shard_cache(diff, "misses")
    metrics["cache.hits"] = (hits, "count")
    metrics["cache.misses"] = (misses, "count")
    metrics["cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["cache.invalidated"] = (
        _sum(diff, "scan_cache.invalidated")
        + _shard_cache(diff, "invalidated"), "count")
    metrics["cse.hits"] = (_sum(diff, "cse.hits"), "count")
    predicted = counts["set.predict.calls"]
    metrics["set.result.calls_per_op"] = (
        counts["set.result.calls"] / predicted if predicted else 0.0,
        "ratio")
    metrics["costmodel.hits"] = (model_diff["hits"], "count")
    metrics["costmodel.fallbacks"] = (model_diff["fallbacks"], "count")
    for name, key, unit in (
            ("shard.gather.merge_cycles", "db.shard.gather.merge_cycles",
             "cycles"),
            ("shard.gather.transfer_cycles",
             "db.shard.gather.transfer_cycles", "cycles"),
            ("shard.gather.bytes", "db.shard.gather.bytes_moved",
             "bytes"),
            ("shard.gather.merges", "db.shard.gather.merges", "count"),
            ("shard.skipped", "db.shard.skipped", "count"),
            ("delta.rows", "db.engine.delta_rows", "count"),
            ("delta.compactions", "table.compactions", "count")):
        metrics[name] = (diff.get(key, 0), unit)
    shard_cycles = [value for name, value in sorted(diff.items())
                    if name.startswith("db.shard.")
                    and name.endswith(".cycles")
                    and name.count(".") == 3]
    total = sum(shard_cycles)
    metrics["shard.skew"] = (
        max(shard_cycles) * len(shard_cycles) / total if total else 0.0,
        "ratio")
    queries = diff.get("db.shard.queries", 0)
    metrics["shard.serial_cycles_per_query"] = (
        diff.get("db.shard.serial_cycles", 0) / queries if queries
        else 0.0, "cycles")
    metrics["iss.instructions"] = (counts["iss.instructions"], "count")
    metrics["iss.cycles"] = (counts["iss.cycles"], "cycles")
    for config in ("DBA_2LSU_EIS", "DBA_1LSU"):
        instructions = counts["iss.%s.instructions" % config]
        metrics["iss.%s.cpi" % config] = (
            counts["iss.%s.cycles" % config] / instructions
            if instructions else 0.0, "ratio")
    return metrics


def _counter_diff(after, before):
    return {name: value - before.get(name, 0)
            for name, value in after.items()
            if isinstance(value, (int, float))}


def one_pass(workload, state, checker, tracer=None):
    """One fixed pass from fresh program state; traced if *tracer*."""
    workload.reset(state)
    before = workload.counters(state)
    model = costmodel.default_cost_model()
    model_before = model.stats()
    if tracer is None:
        totals = serve(workload, state, checker,
                       steps=workload.trace_steps)
    else:
        with traced(tracer):
            totals = serve(workload, state, checker,
                           steps=workload.trace_steps)
    diff = _counter_diff(workload.counters(state), before)
    model_diff = _counter_diff(model.stats(), model_before)
    return totals, diff, model_diff


def traced_run(workload, state, checker, seconds):
    """Alternate untraced and traced passes of identical work.

    Counters must repeat exactly from pass to pass.  Self-time shares
    and the tracing overhead (traced over untraced pass time, minus
    one) are medians over the pairs of passes.
    """
    started = time.perf_counter()
    passes, counts = [], [0, 0]
    while not passes or time.perf_counter() - started < seconds:
        totals, _diff, _model = one_pass(workload, state, checker)
        tracer = LayerTracer()
        traced_totals, diff, model_diff = one_pass(workload, state,
                                                   checker, tracer)
        passes.append(per_layer(tracer, diff, model_diff,
                                traced_totals))
        passes[-1]["trace.overhead_frac"] = (
            traced_totals.seconds / totals.seconds - 1.0, "frac")
        for each in (totals, traced_totals):
            counts[0] += each.attempted
            counts[1] += each.refused
    metrics = {}
    for name, (value, unit) in passes[0].items():
        values = [each[name][0] for each in passes]
        if name.endswith("_frac"):
            value = statistics.median(values)
        elif any(other != value for other in values):
            raise CheckFailed("%s: counter %s differs between identical "
                              "passes: %r" % (workload.name, name, values))
        metrics[name] = (value, unit)
    return metrics, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=INJECTIONS,
                        help="corrupt one answer before it is checked "
                             "(the check's self-test; the run must fail)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    # The generated inputs can be hundreds of thousands of objects that
    # live for the whole run; keep the collector from rescanning them
    # during set-up and the timed loop, where the pauses would be
    # billed to the program.
    gc.collect()
    gc.freeze()
    setups = []
    for _ in range(SETUP_BEFORE):
        state, seconds, reference = timed_setup(workload, inputs)
        setups.append((seconds, reference))
    workload.prepare(state)
    checker = Checker(args.inject)
    try:
        if args.trace:
            metrics, (attempted, refused) = traced_run(
                workload, state, checker, args.seconds)
        else:
            totals = serve(workload, state, checker,
                           seconds=args.seconds)
            metrics, raw = end_to_end(totals, workload.tail_percentile)
            attempted, refused = totals.attempted, totals.refused
        workload.finish(state, checker)
        if not args.trace:
            for _ in range(SETUP_AFTER):
                setups.append(timed_setup(workload, inputs)[1:])
            metrics["setup_s"] = (statistics.median(
                seconds * NOMINAL_S / reference
                for seconds, reference in setups), "s")
            raw["setup_s"] = statistics.median(
                seconds for seconds, _reference in setups)
    except CheckFailed as failure:
        print("CHECK FAILED: %s" % failure, file=sys.stderr)
        return 1
    if checker.inject is not None:
        print("CHECK FAILED: the injected defect was never checked",
              file=sys.stderr)
        return 1

    print("workload %s (%s)" % (workload.name, workload.warmth))
    print("%d operations attempted, 0 failed, %d refused as the oracle "
          "predicts; %d answers checked"
          % (attempted, refused, checker.checked))
    if not args.trace:
        print("%d latency samples in %d windows of >= %d; tail_ms is "
              "p%d per window" % (totals.samples, len(totals.windows),
                                  workload.window_ops,
                                  workload.tail_percentile))
        print("host reference %.3f ms (nominal %.3f ms); as measured: "
              "%s" % (raw.pop("reference_ms"), 1000.0 * NOMINAL_S,
                      ", ".join("%s %.6g" % item for item in raw.items())))
    for name, (value, unit) in metrics.items():
        print("  %-34s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        # An operation that errors, or is refused where the oracle does
        # not predict it, aborts the run before this line.
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
