"""Per-layer attribution for the traced benchmark run.

The program carries no tracing of its own for these layers yet, so the
traced run wraps each layer's public entry point from here, for the
duration of one pass, and restores the originals afterwards.  Every
wrapper records a span on one stack: a layer's *self* time is its
span's duration minus the time of the spans nested inside it, so the
self times of all layers never add up to more than the pass.

Counters that the program already keeps (engine and shard registries,
``CostModel.stats()``) are read as differences around the pass by the
workloads; the counters here are the ones only a wrapper can see
(calls, elements in and out of a layer, refusals, ISS work).
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.core import costmodel
from repro.cpu.processor import Processor
from repro.db import columnar, engine, executor, predicates, shard
from repro.db.planlint import PlanError


class LayerTracer:
    """Self time and counters per layer for one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, layer, function, count=None):
        """*function* with a span named *layer* around every call.

        *count(counts, result, args)* updates the layer's counters
        after a call returns.
        """
        stack = self._stack
        self_s = self.self_s
        counts = self.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            except PlanError:
                if layer == "plan":
                    counts["plan.refused"] += 1
                raise
            finally:
                elapsed = perf_counter() - started
                nested = stack.pop()
                self_s[layer] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(counts, result, args)
            return result

        return traced


def _plan(counts, _result, _args):
    counts["plan.calls"] += 1


def _scan(counts, rids, _args):
    counts["scan.calls"] += 1
    counts["scan.rids_out"] += len(rids)


def _set_result(counts, _values, _args):
    counts["set.result.calls"] += 1


def _set_predict(counts, _features, args):
    counts["set.predict.calls"] += 1
    counts["set.predict.elements_in"] += len(args[1]) + len(args[2])


def _sort_predict(counts, _features, args):
    counts["sort.calls"] += 1
    counts["sort.elements_in"] += args[0]


def _fetch(counts, rows, _args):
    counts["fetch.rows"] += len(rows)


def _iss(counts, run, args):
    config = args[0].config.name
    counts["iss.instructions"] += run.instructions
    counts["iss.cycles"] += run.cycles
    counts["iss.%s.instructions" % config] += run.instructions
    counts["iss.%s.cycles" % config] += run.cycles


#: (owner, attribute, layer, counter).  ``lint_query_or_raise`` is
#: wrapped under the names the engine and shard modules bound it to,
#: because that is where the serving path looks it up.
TARGETS = (
    (engine, "lint_query_or_raise", "plan", _plan),
    (shard, "lint_query_or_raise", "plan", _plan),
    (predicates.Eq, "scan", "scan", _scan),
    (predicates.Range, "scan", "scan", _scan),
    (predicates.In, "scan", "scan", _scan),
    (costmodel, "set_result", "set.result", _set_result),
    (costmodel, "eis_set_features", "set.predict", _set_predict),
    (executor.QueryExecutor, "pack_rids", "sort.pack", None),
    (costmodel, "eis_sort_features", "sort.predict", _sort_predict),
    (costmodel, "sort_result", "sort.result", None),
    (columnar.ColumnarTable, "fetch", "fetch", _fetch),
    (engine.QueryEngine, "evaluate_predicate", "shard.scatter", None),
    (shard.ShardedEngine, "execute", "shard.coordinator", None),
    (columnar.ColumnarTable, "apply_delta", "delta.table", None),
    (columnar.ColumnarIndex, "apply_delta", "delta.index", None),
    (engine.QueryEngine, "apply_delta", "delta.invalidate", None),
    (Processor, "run", "iss", _iss),
)

#: Layers whose self time is reported, in report order.
LAYERS = ("plan", "scan", "set.result", "set.predict", "sort.pack",
          "sort.predict", "sort.result", "fetch", "shard.scatter",
          "shard.coordinator", "delta.table", "delta.index",
          "delta.invalidate", "iss")


@contextmanager
def traced(tracer):
    """Install *tracer*'s wrappers on every target; restore on exit."""
    originals = []
    try:
        for owner, name, layer, count in TARGETS:
            original = owner.__dict__[name]
            originals.append((owner, name, original))
            setattr(owner, name, tracer.wrap(layer, original, count))
        yield tracer
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
