"""The four benchmark workloads.

Each workload turns ``--seed`` into its inputs (:meth:`inputs`, not
timed), builds the program's state from them (:meth:`setup`, timed as
``setup_s``), and then serves *steps*: small fixed units of work, each
one deterministic given the seed and the step index.  A step times
only the calls into the program; it checks every answer against the
brute-force :mod:`oracle` afterwards, outside the timed region.

One closed-loop client issues one operation at a time, in-process, with
no worker pools, so the numbers measure the program and not the
scheduler.

Per-workload meaning of the end-to-end metrics (the *operation*):

==============  =============================================  ============
workload        operation (``qps``, ``p50_ms``, ``tail_ms``)    warmth
==============  =============================================  ============
serve_cold      one query, ``QueryEngine.execute``              cold
churn           one read for ``qps``; one ``apply_delta`` for   warm
                ``p50_ms`` / ``tail_ms`` (the write latency)
scale_out       one query, ``ShardedEngine.execute``            cold
paper_kernels   one kernel run on the ISS; ``qps`` counts       cold
                simulated instructions per second
==============  =============================================  ============
"""

import json
import os
import random
import time

from repro.configs.catalog import build_processor
from repro.core import costmodel
from repro.core.kernels import (clear_portable_cache, run_merge_sort,
                                run_set_operation)
from repro.core.scalar_kernels import (run_scalar_merge_sort,
                                       run_scalar_set_operation)
from repro.db.bench import demo_queries
from repro.db.columnar import ColumnarTable, DeltaBatch
from repro.db.engine import Query, QueryEngine
from repro.db.planlint import PlanError
from repro.db.predicates import Eq, In, Range
from repro.db.shard import ShardedEngine
from repro.workloads.sets import (generate_delta_stream,
                                  generate_set_pair, zipf_weights)
from repro.workloads.sorting import random_values

from oracle import CheckFailed, RowModel, check_answer

SERVING_CONFIG = "DBA_2LSU_EIS"
#: Table 2 / Figure 13 cycle counts at seed 42, as recorded in the
#: repository's bench history before this benchmark existed.
PAPER_CELLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "paper_cells.json")
COLUMNS = ("status", "region", "price")
SET_OPS = ("intersection", "union", "difference")


def _sub_seed(seed, stream, index=0):
    """A distinct, reproducible seed per (run seed, input stream, index)."""
    return (seed * 1_000_003 + stream * 10_007 + index) % (1 << 62)


class Step:
    """What one step did, for the runner to add up."""

    __slots__ = ("seconds", "latencies", "attempted", "refused",
                 "answered", "units", "cycles", "makespan")

    def __init__(self):
        self.seconds = 0.0
        self.latencies = []
        self.attempted = 0
        #: Refusals the oracle predicts (PLAN007 on churn): the
        #: program's specified answer, so not failures, but not
        #: answered either; ``answered_frac`` shows them.
        self.refused = 0
        self.answered = 0
        #: What ``qps`` counts: answered operations, or simulated
        #: instructions on paper_kernels.
        self.units = 0
        self.cycles = 0
        self.makespan = 0


class Checker:
    """Answer checks, plus the two defects the self-test injects."""

    def __init__(self, inject=None):
        self.inject = inject
        self.checked = 0

    def answer(self, model, query, result, where):
        rids, rows = result.rids, result.rows
        if self.inject == "drop-rid" and len(rids):
            self.inject = None
            rids = list(rids)[1:]
        check_answer(model, query, rids, rows, where)
        self.checked += 1

    def values(self, got, want, where):
        if got != want:
            raise CheckFailed("%s: wrong result" % where)
        self.checked += 1

    def cycles(self, got, want, where):
        if self.inject == "cycle-off-by-one":
            self.inject = None
            got += 1
        if got != want:
            raise CheckFailed("%s: %d modeled cycles, expected %d"
                              % (where, got, want))
        self.checked += 1


def _demo_columns(rows, seed):
    """Uniform status/region/price columns, as ``repro db bench`` uses."""
    rng = random.Random(seed)
    return {"status": [rng.randrange(4) for _ in range(rows)],
            "region": [rng.randrange(8) for _ in range(rows)],
            "price": [rng.randrange(1000) for _ in range(rows)]}


def _indexed_table(name, columns):
    table = ColumnarTable(name, columns)
    for column in COLUMNS:
        table.create_index(column)
    return table


def _calibrate(processor):
    """Fit the cost model for every serving kernel, from scratch."""
    costmodel.clear_calibration_cache()
    model = costmodel.default_cost_model()
    for which in SET_OPS:
        model.set_operation(processor, which, [1, 2, 5], [2, 3, 5])
    model.merge_sort(processor, [3, 1, 2])
    return model


class Workload:
    name = None
    #: "cold" or "warm", with the reason, printed with every result.
    warmth = None
    #: Steps whose modeled cycles are summed for the deterministic
    #: metrics; every run serves at least these.
    prefix_steps = 1
    #: Steps of one pass of the traced run.
    trace_steps = 1
    #: Latency samples per window (see ``run.Totals``), and the
    #: percentile of a window reported as ``tail_ms``: p90 of 100
    #: samples keeps ten beyond it in every window.  p95 of 200 spread
    #: 0.2 across ten churn runs: short operations' upper tail swells
    #: far more than their median when other tenants load the host.
    window_ops = 100
    tail_percentile = 90

    def inputs(self, seed):
        raise NotImplementedError

    def setup(self, inputs):
        raise NotImplementedError

    def prepare(self, state):
        """The benchmark's own per-pass state: answer models, query
        pools (not timed)."""

    def reset(self, state):
        """Fresh program state for another pass (not timed)."""
        self.prepare(state)

    def step(self, state, index, checker):
        raise NotImplementedError

    def counters(self, state):
        """Program-kept counters, cumulative; diffed around a pass."""
        return {}

    def finish(self, state, checker):
        """Checks that need the whole run (outside the timed loop)."""


class ServeCold(Workload):
    """Demo traffic over 4000 rows, a fresh engine per 64 queries."""

    name = "serve_cold"
    warmth = ("cold: a fresh QueryEngine every 64 queries, so the scan "
              "cache starts empty; the cost model is calibrated in "
              "set-up")
    rows = 4000
    batch = 64
    prefix_steps = 32
    trace_steps = 4
    iss_sample = 12

    def inputs(self, seed):
        return {"seed": seed, "columns": _demo_columns(self.rows, seed)}

    def setup(self, inputs):
        table = _indexed_table("orders", inputs["columns"])
        processor = build_processor(SERVING_CONFIG)
        _calibrate(processor)
        return {"inputs": inputs, "table": table,
                "processor": processor}

    def prepare(self, state):
        state.update(model=RowModel(state["inputs"]["columns"]),
                     totals={}, replay=[])

    def step(self, state, index, checker):
        table = state["table"]
        queries = demo_queries(table, count=self.batch,
                               seed=_sub_seed(state["inputs"]["seed"], 1,
                                             index))
        done = Step()
        results = []
        started = time.perf_counter()
        engine = QueryEngine(processor=state["processor"],
                             cost_model=True)
        for query in queries:
            began = time.perf_counter()
            result = engine.execute(query)
            done.latencies.append(time.perf_counter() - began)
            results.append(result)
        done.seconds = time.perf_counter() - started
        done.attempted = done.answered = done.units = len(queries)
        for position, (query, result) in enumerate(zip(queries,
                                                       results)):
            checker.answer(state["model"], query, result,
                           "serve_cold step %d query %d"
                           % (index, position))
            done.cycles += result.stats.cycles
        done.makespan = done.cycles
        totals = state["totals"]
        for name, value in engine.registry.snapshot().as_dict().items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0) + value
        if index < self.prefix_steps:
            state["replay"].extend(zip(queries, results))
        return done

    def counters(self, state):
        return dict(state["totals"])

    def finish(self, state, checker):
        """Replay a seeded sample on the ISS: same RIDs, same cycles."""
        served = state["replay"]
        if not served:
            return
        rng = random.Random(_sub_seed(state["inputs"]["seed"], 2))
        sample = rng.sample(served, min(self.iss_sample, len(served)))
        for position, (query, result) in enumerate(sample):
            reference = QueryEngine(config=SERVING_CONFIG,
                                    cost_model=False).execute(query)
            where = "serve_cold ISS replay %d" % position
            if list(result.rids) != list(reference.rids):
                raise CheckFailed("%s: cost-model RIDs differ from the "
                                  "ISS" % where)
            checker.cycles(result.stats.cycles, reference.stats.cycles,
                           where)


class Churn(Workload):
    """Zipfian deltas through one long-lived engine, reads between."""

    name = "churn"
    warmth = ("warm: one long-lived QueryEngine whose scan cache "
              "survives deltas that do not touch an entry's values")
    rows = 4000
    inserts = 16
    deletes = 16
    ghost_every = 16
    reads_per_batch = 8
    pool_size = 128
    #: The query pool is the application's fixed statement catalog:
    #: every seed draws from the same 128 statements with the same
    #: popularity ranks, so the ORDER BY share of the reads (which
    #: PLAN007 refuses once the RID span passes 4096) depends on the
    #: draws, not on which statement a seed happens to rank first.
    pool_seed = 7
    pool_theta = 1.0
    #: Enough batches for a 15 s run with headroom (one uses about
    #: 4500); a run that uses them all ends early.
    batches = 6000
    #: Few reads are answered once PLAN007 refuses ORDER BY, so the
    #: modeled cycles per read need a long prefix to settle across
    #: seeds.
    prefix_steps = 3000
    trace_steps = 300

    def inputs(self, seed):
        columns, specs = generate_delta_stream(
            self.rows, self.batches,
            {"status": 4, "region": 8, "price": 1000},
            inserts_per_batch=self.inserts,
            deletes_per_batch=self.deletes,
            seed=_sub_seed(seed, 3),
            ghost_batches=range(self.ghost_every - 1, self.batches,
                                self.ghost_every))
        rng = random.Random(_sub_seed(seed, 4))
        draws = rng.choices(range(self.pool_size),
                            weights=zipf_weights(self.pool_size,
                                                 self.pool_theta),
                            k=self.batches * self.reads_per_batch)
        return {"columns": columns, "specs": specs, "draws": draws}

    def setup(self, inputs):
        processor = build_processor(SERVING_CONFIG)
        _calibrate(processor)
        state = {"inputs": inputs, "processor": processor}
        self._build(state)
        return state

    def _build(self, state):
        state["table"] = _indexed_table("orders",
                                        state["inputs"]["columns"])
        state["engine"] = QueryEngine(processor=state["processor"],
                                      cost_model=True)

    def prepare(self, state):
        state["pool"] = demo_queries(state["table"],
                                     count=self.pool_size,
                                     seed=self.pool_seed)
        state["model"] = RowModel(state["inputs"]["columns"])

    def reset(self, state):
        self._build(state)
        self.prepare(state)

    def step(self, state, index, checker):
        specs = state["inputs"]["specs"]
        if index >= len(specs):
            return None
        table, engine, model = state["table"], state["engine"], \
            state["model"]
        done = Step()
        batch = DeltaBatch.from_spec(specs[index])
        began = time.perf_counter()
        engine.apply_delta(table, batch)
        elapsed = time.perf_counter() - began
        done.seconds += elapsed
        done.latencies.append(elapsed)
        model.apply(specs[index])
        draws = state["inputs"]["draws"]
        base = index * self.reads_per_batch
        for offset in range(self.reads_per_batch):
            query = state["pool"][draws[base + offset]]
            where = "churn step %d read %d" % (index, offset)
            done.attempted += 1
            began = time.perf_counter()
            try:
                result = engine.execute(query)
            except PlanError as error:
                done.seconds += time.perf_counter() - began
                done.refused += 1
                codes = {d.code for d in error.report.errors()}
                if not model.refuses(query) or codes != {"PLAN007"}:
                    raise CheckFailed("%s: unexpected refusal %s"
                                      % (where, sorted(codes)))
                continue
            done.seconds += time.perf_counter() - began
            if model.refuses(query):
                raise CheckFailed("%s: served an ORDER BY that PLAN007 "
                                  "must refuse" % where)
            done.answered += 1
            done.units += 1
            checker.answer(model, query, result, where)
            done.cycles += result.stats.cycles
        done.makespan = done.cycles
        return done

    def counters(self, state):
        values = state["engine"].metrics_snapshot()
        values["table.compactions"] = state["table"].compactions
        return values


def _where_queries(table, rng, count):
    """Deep-conjunction WHERE-only queries, the scale-out experiment's
    shape (index ANDing over large operands, small results)."""
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


class ScaleOut(Workload):
    """Distinct WHERE-only queries on a 4-shard hash ShardedEngine."""

    name = "scale_out"
    warmth = ("cold: every query is distinct, so the cross-query shard "
              "cache never hits and no modeled cycle is skipped; the "
              "shard engines' leaf scan caches do fill over the run")
    rows = 8192
    shards = 4
    per_step = 16
    prefix_steps = 32
    trace_steps = 8

    def inputs(self, seed):
        return {"seed": seed, "columns": _demo_columns(self.rows, seed)}

    def setup(self, inputs):
        state = {"inputs": inputs,
                 "table": _indexed_table("orders", inputs["columns"])}
        self._build(state)
        _calibrate(state["engine"].coordinator.processor)
        return state

    def _build(self, state):
        engine = ShardedEngine(config=SERVING_CONFIG, shards=self.shards,
                               partitioner="hash", cost_model=True)
        engine.shards_for(state["table"])
        state["engine"] = engine

    def prepare(self, state):
        state["model"] = RowModel(state["inputs"]["columns"])
        state["seen"] = set()

    def reset(self, state):
        self._build(state)
        self.prepare(state)

    def _queries(self, state, index):
        """The step's queries, skipping any repeat of an earlier one."""
        rng = random.Random(_sub_seed(state["inputs"]["seed"], 5, index))
        queries = []
        while len(queries) < self.per_step:
            query = _where_queries(state["table"], rng, 1)[0]
            key = repr(query.predicate)
            if key not in state["seen"]:
                state["seen"].add(key)
                queries.append(query)
        return queries

    def step(self, state, index, checker):
        queries = self._queries(state, index)
        engine = state["engine"]
        done = Step()
        results = []
        for query in queries:
            began = time.perf_counter()
            results.append(engine.execute(query))
            elapsed = time.perf_counter() - began
            done.seconds += elapsed
            done.latencies.append(elapsed)
        done.attempted = done.answered = done.units = len(queries)
        for position, (query, result) in enumerate(zip(queries,
                                                       results)):
            checker.answer(state["model"], query, result,
                           "scale_out step %d query %d"
                           % (index, position))
            if not result.complete:
                raise CheckFailed("scale_out: incomplete answer")
            done.cycles += result.stats.cycles
            done.makespan += result.makespan_cycles
        return done

    def counters(self, state):
        return state["engine"].metrics_snapshot()


#: The kernel mix of one paper_kernels step, per configuration.
KERNELS = SET_OPS + ("sort",)
#: (configuration, partial load, set runner, sort runner).
KERNEL_CONFIGS = (
    ("DBA_2LSU_EIS", True, run_set_operation, run_merge_sort),
    ("DBA_1LSU", False, run_scalar_set_operation, run_scalar_merge_sort),
)


class PaperKernels(Workload):
    """Table 2 / Figure 13 kernels on the cycle-level ISS."""

    name = "paper_kernels"
    warmth = ("cold: no cache between kernel runs; kernels are "
              "assembled and loaded in set-up")
    set_size = 5000
    sort_size = 6500
    selectivity = 0.5
    input_sets = 3
    prefix_steps = 3
    trace_steps = 1
    #: A window is one pass of the eight kernel runs.  Its median and
    #: its slowest run (the scalar sort) are taken per pass and then
    #: the median over the passes is reported.  Pooling all runs put
    #: the median and tail on the edge between two kernel shapes,
    #: where they jumped from run to run.
    window_ops = len(KERNEL_CONFIGS) * len(KERNELS)
    tail_percentile = 100

    def inputs(self, seed):
        sets = []
        for position in range(self.input_sets):
            sub = _sub_seed(seed, 6, position)
            set_a, set_b = generate_set_pair(
                self.set_size, selectivity=self.selectivity, seed=sub)
            sets.append((set_a, set_b,
                         random_values(self.sort_size, seed=sub)))
        return {"sets": sets}

    def setup(self, inputs):
        clear_portable_cache()
        processors = []
        for name, partial, set_runner, sort_runner in KERNEL_CONFIGS:
            processor = build_processor(name, partial_load=partial)
            for which in SET_OPS:
                set_runner(processor, which, [1, 2], [2, 3])
            sort_runner(processor, [2, 1])
            processors.append(processor)
        return {"inputs": inputs, "processors": processors}

    def prepare(self, state):
        state["truths"] = [{"intersection": sorted(set(a) & set(b)),
                            "union": sorted(set(a) | set(b)),
                            "difference": sorted(set(a) - set(b)),
                            "sort": sorted(values)}
                           for a, b, values in state["inputs"]["sets"]]

    def step(self, state, index, checker):
        position = index % self.input_sets
        set_a, set_b, values = state["inputs"]["sets"][position]
        truth = state["truths"][position]
        done = Step()
        for processor, (name, _partial, set_runner, sort_runner) in zip(
                state["processors"], KERNEL_CONFIGS):
            for kernel in KERNELS:
                began = time.perf_counter()
                if kernel == "sort":
                    output, run = sort_runner(processor, values,
                                              validate_input=False)
                else:
                    output, run = set_runner(processor, kernel, set_a,
                                             set_b, validate_input=False)
                elapsed = time.perf_counter() - began
                done.seconds += elapsed
                done.latencies.append(elapsed)
                done.attempted += 1
                checker.values(output, truth[kernel],
                               "paper_kernels step %d: %s %s"
                               % (index, name, kernel))
                done.answered += 1
                done.cycles += run.cycles
                done.units += run.instructions
        done.makespan = done.cycles
        return done

    def finish(self, state, checker):
        check_paper_cells(state["processors"], checker)


def check_paper_cells(processors, checker):
    """Seed-42 paper inputs must give the recorded Table 2 cycles."""
    with open(PAPER_CELLS) as handle:
        cells = json.load(handle)["cycles"]
    set_a, set_b = generate_set_pair(5000, selectivity=0.5, seed=42)
    values = random_values(6500, seed=42)
    for processor, (name, _partial, set_runner, sort_runner) in zip(
            processors, KERNEL_CONFIGS):
        for kernel in KERNELS:
            if kernel == "sort":
                _output, run = sort_runner(processor, values)
            else:
                _output, run = set_runner(processor, kernel, set_a,
                                          set_b)
            cell = "%s/%s" % (name, kernel)
            checker.cycles(run.cycles, cells[cell],
                           "paper cell %s at seed 42" % cell)


WORKLOADS = {workload.name: workload for workload in
             (ServeCold(), Churn(), ScaleOut(), PaperKernels())}
