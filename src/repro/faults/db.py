"""Db-layer chaos: seeded fault campaigns against the sharded tier.

Where :mod:`repro.faults.campaign` attacks the simulated *hardware*
(bit flips, dropped DMA descriptors), this module attacks the sharded
*serving layer* (:class:`~repro.db.shard.ShardedEngine`): shard
workers die, responses straggle, RID lists are corrupted on the
response channel.  A campaign (``repro db chaos``) runs a
deterministic query batch N times, one sampled fault per trial, and
classifies every trial against the unsharded reference engine:

``masked``
    Every query completed byte-identical to the reference — the fault
    was absorbed by a replica failover, a hedge, a detected-corruption
    retransmit, or it landed in dead data.
``degraded``
    One or more queries returned a *typed partial answer*
    (``complete=False``, a strict subset of the reference RIDs) —
    the engine lost a shard and said so.
``wrong_result``
    A query's answer disagrees with the reference without being
    flagged (a complete answer that differs, or a degraded answer
    that is not a subset): silent corruption, the worst case.  The CI
    chaos job gates this class to zero.
``failed``
    An exception escaped ``execute_batch`` — in strict mode a typed
    :class:`~repro.db.failover.ShardError`, anything else is a
    harness bug.
``hang``
    A query's modeled makespan exceeded the campaign fuel
    (``64 x`` the fault-free maximum) — a wedged response with no
    deadline armed.

Determinism contract: identical parameters produce byte-identical
campaign reports — trial RNGs are string-seeded per trial index, all
timing is modeled cycles, and wall-clock never enters the report.
"""

import random

from .plan import M32, Fault, FaultPlan

#: Outcome classes, in report order.
DB_OUTCOMES = ("masked", "degraded", "wrong_result", "failed", "hang")

#: CLI spellings of the fault kinds.
DB_FAULT_KINDS = ("kill", "delay", "corrupt")

#: A wedged response: effectively-infinite extra cycles (half of all
#: sampled delays), the straggler the deadline machinery exists for.
WEDGE_CYCLES = 1 << 40

#: ``hang`` classification: makespan beyond this multiple of the
#: fault-free maximum means the fault broke forward progress.
HANG_FUEL_FACTOR = 64


# ---------------------------------------------------------------------------
# fault model
# ---------------------------------------------------------------------------

class WorkerKill(Fault):
    """Engine *host* stops answering from query *at_query* onwards.

    Persistent — a dead worker stays dead for the rest of the batch;
    every dispatch to it (primary or replica duty) fails.
    """

    kind = "worker_kill"
    __slots__ = ("host", "at_query")

    def __init__(self, host, at_query):
        self.host = host
        self.at_query = at_query


class ResponseDelay(Fault):
    """Shard *shard*'s response to *query_index* takes *extra_cycles*.

    One-shot; half of all sampled delays are :data:`WEDGE_CYCLES`
    wedges (a response that never usefully arrives), the rest are
    bounded stragglers.
    """

    kind = "response_delay"
    __slots__ = ("shard", "query_index", "extra_cycles")

    def __init__(self, shard, query_index, extra_cycles):
        self.shard = shard
        self.query_index = query_index
        self.extra_cycles = extra_cycles


class ResponseCorrupt(Fault):
    """Mutate shard *shard*'s RID list for *query_index* in flight.

    One-shot, applied on the first delivery for the (shard, query)
    pair.  ``mode`` picks the mutation — ``drop`` (lose one RID),
    ``flip`` (XOR one bit of one RID), ``inject`` (insert a bogus
    RID); ``element`` / ``bit`` are the deterministic coordinates.
    The sender-side checksum must *detect* every one of these.
    """

    kind = "response_corrupt"
    __slots__ = ("shard", "query_index", "mode", "element", "bit")

    def __init__(self, shard, query_index, mode, element, bit):
        if mode not in ("drop", "flip", "inject"):
            raise ValueError("unknown corruption mode %r" % (mode,))
        self.shard = shard
        self.query_index = query_index
        self.mode = mode
        self.element = element
        self.bit = bit


class DbTrialProfile:
    """What the sampler may target for one campaign configuration."""

    __slots__ = ("shards", "queries", "delay_scale")

    def __init__(self, shards, queries, delay_scale):
        self.shards = max(1, shards)
        self.queries = max(1, queries)
        self.delay_scale = max(2, delay_scale)


def _sample_kill(rng, profile):
    return WorkerKill(rng.randrange(profile.shards),
                      rng.randrange(profile.queries))


def _sample_delay(rng, profile):
    extra = WEDGE_CYCLES if rng.random() < 0.5 \
        else rng.randrange(1, profile.delay_scale)
    return ResponseDelay(rng.randrange(profile.shards),
                         rng.randrange(profile.queries), extra)


def _sample_corrupt(rng, profile):
    return ResponseCorrupt(rng.randrange(profile.shards),
                           rng.randrange(profile.queries),
                           rng.choice(("drop", "flip", "inject")),
                           rng.randrange(1 << 16), rng.randrange(31))


_DB_SAMPLERS = {"kill": (_sample_kill, 4),
                "delay": (_sample_delay, 3),
                "corrupt": (_sample_corrupt, 3)}


def sample_db_plan(rng, profile, kinds=DB_FAULT_KINDS):
    """One-fault :class:`FaultPlan` for a db-layer trial.

    One fault per trial keeps the outcome attributable, exactly like
    the cpu-layer campaigns; *kinds* restricts the mix (the CI
    acceptance runs are kill-only).
    """
    available = []
    for kind in kinds:
        if kind not in _DB_SAMPLERS:
            raise ValueError("unknown db fault kind %r (one of %s)"
                             % (kind, ", ".join(DB_FAULT_KINDS)))
        available.append(_DB_SAMPLERS[kind])
    total = sum(weight for _sampler, weight in available)
    pick = rng.randrange(total)
    for sampler, weight in available:
        pick -= weight
        if pick < 0:
            return FaultPlan([sampler(rng, profile)])
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# injector
# ---------------------------------------------------------------------------

class DbFaultInjector:
    """Arms a :class:`FaultPlan` of db-layer faults on a sharded engine.

    The engine consults it at dispatch (:meth:`host_killed`) and
    delivery (:meth:`delay_cycles`, :meth:`deliver`) time; an unarmed
    engine (``fault_injector=None``) pays nothing.  ``fired`` logs
    every actual trigger for the trial report.
    """

    def __init__(self, plan):
        self.plan = plan
        self.fired = []
        self._kills = {}
        self._delays = {}
        self._corrupts = {}
        for fault in plan:
            if isinstance(fault, WorkerKill):
                at = self._kills.get(fault.host)
                self._kills[fault.host] = fault.at_query if at is None \
                    else min(at, fault.at_query)
            elif isinstance(fault, ResponseDelay):
                self._delays[(fault.shard, fault.query_index)] = fault
            elif isinstance(fault, ResponseCorrupt):
                self._corrupts[(fault.shard, fault.query_index)] = fault
            else:
                raise TypeError("not a db-layer fault: %r" % (fault,))

    def host_killed(self, host, query_index):
        """Is engine *host* dead for *query_index*?  (Persistent.)"""
        at = self._kills.get(host)
        if at is None or query_index < at:
            return False
        self.fired.append(("worker_kill",
                           "host %d at query %d" % (host, query_index)))
        return True

    def delay_cycles(self, shard, query_index):
        """Extra response cycles for this delivery (one-shot)."""
        fault = self._delays.pop((shard, query_index), None)
        if fault is None:
            return 0
        self.fired.append(("response_delay",
                           "shard %d query %d +%d cycles"
                           % (shard, query_index, fault.extra_cycles)))
        return fault.extra_cycles

    def deliver(self, shard, query_index, rids):
        """Pass a RID list through the response channel.

        Returns ``(rids, mutated)``; a corruption fault keyed on this
        (shard, query) mutates the list once.  No-op mutations (e.g.
        dropping from an empty list) do not count as fired.
        """
        fault = self._corrupts.get((shard, query_index))
        if fault is None:
            return rids, False
        rids = [int(rid) for rid in rids]
        count = len(rids)
        if fault.mode == "drop":
            if not count:
                return rids, False
            del rids[fault.element % count]
        elif fault.mode == "flip":
            if not count:
                return rids, False
            rids[fault.element % count] ^= (1 << fault.bit)
        else:  # inject
            rids.insert(fault.element % (count + 1),
                        (fault.element ^ (1 << fault.bit)) & M32)
        del self._corrupts[(fault.shard, fault.query_index)]
        self.fired.append(("response_corrupt",
                           "shard %d query %d %s"
                           % (shard, query_index, fault.mode)))
        return rids, True


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

def chaos_queries(table, count, seed):
    """WHERE-only query batch whose every query touches every shard.

    Broad predicates (wide price ranges, OR'd equality arms) keep
    every shard contributing rows to every query, so a killed shard
    always shows up — as a failover (replicated) or as a degraded
    subset (unreplicated) — instead of hiding behind pruning.  No
    ORDER BY / LIMIT: a degraded answer is then exactly "the reference
    minus the dead shard's rows", which keeps the subset check in the
    classifier sound.
    """
    from ..db.engine import Query
    from ..db.predicates import Eq, Range
    rng = random.Random("db-chaos-queries:%d:%s" % (count, seed))
    queries = []
    for _ in range(count):
        low = rng.randrange(500)
        predicate = Range("price", low, low + 400 + rng.randrange(300))
        if rng.random() < 0.5:
            predicate = predicate | Eq("status", rng.randrange(4))
        if rng.random() < 0.3:
            predicate = predicate & Range("region", 0,
                                          3 + rng.randrange(4))
        queries.append(Query(table, predicate))
    return queries


def _classify(results, reference, fuel):
    """Outcome of one trial's batch vs the unsharded reference."""
    degraded = 0
    failovers = 0
    wrong = None
    hang = False
    for index, (result, expected) in enumerate(zip(results, reference)):
        failovers += result.failovers
        if result.makespan_cycles > fuel:
            hang = True
        if result.complete:
            if result.rids != expected:
                wrong = ("query %d: complete answer differs from "
                         "reference" % index)
        else:
            degraded += 1
            if not set(result.rids) <= set(expected):
                wrong = ("query %d: degraded answer is not a subset "
                         "of the reference" % index)
    if wrong is not None:
        return "wrong_result", wrong, degraded, failovers
    if hang:
        return "hang", "makespan exceeded the %d-cycle fuel" % fuel, \
            degraded, failovers
    if degraded:
        return "degraded", None, degraded, failovers
    return "masked", None, degraded, failovers


def run_db_campaign(shards=4, replication=1, trials=24, seed=42,
                    rows=512, queries=12, deadline="auto",
                    kinds=DB_FAULT_KINDS, partitioner="hash",
                    breaker_threshold=3, breaker_cooldown=4,
                    hedge_fraction=0.5, delta_batches=0, delta_rows=32,
                    log=None):
    """Run a db-layer chaos campaign; returns the JSON-ready report.

    *deadline* is ``"auto"`` (8x the fault-free per-shard maximum, so
    wedged responses are hedged/failed instead of waited out),
    ``"none"`` / ``None`` (no deadline — wedges classify as ``hang``),
    or an explicit modeled-cycle budget.

    *delta_batches* > 0 swaps the demo table for one mutated by the
    shared Zipfian delta stream
    (``repro.workloads.sets.generate_delta_stream``) before the
    campaign: the trials then exercise failover over a sparse RID
    space with tombstones and annihilated ghosts.
    """
    from ..db.bench import build_demo_table
    from ..db.engine import QueryEngine
    from ..db.shard import FAULT_COUNTERS, ShardedEngine

    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("need at least one fault kind")
    for kind in kinds:
        if kind not in _DB_SAMPLERS:
            raise ValueError("unknown db fault kind %r (one of %s)"
                             % (kind, ", ".join(DB_FAULT_KINDS)))
    delta_report = None
    if delta_batches:
        from ..db.columnar import ColumnarTable, DeltaBatch
        from ..workloads.sets import generate_delta_stream
        initial, specs = generate_delta_stream(
            rows, delta_batches,
            {"status": 4, "region": 8, "price": 1000},
            inserts_per_batch=delta_rows,
            deletes_per_batch=max(1, delta_rows // 2), seed=seed)
        table = ColumnarTable("orders", initial)
        for column in ("status", "region", "price"):
            table.create_index(column)
        annihilated = 0
        for spec in specs:
            outcome = table.apply_delta(DeltaBatch.from_spec(spec))
            annihilated += outcome["annihilated"]
        delta_report = {"batches": delta_batches,
                        "rows_per_batch": delta_rows,
                        "annihilated": annihilated,
                        "live_rows": table.row_count,
                        "rid_limit": table.rid_limit(),
                        "compactions": table.compactions}
    else:
        table = build_demo_table(rows=rows, seed=seed)
    batch = chaos_queries(table, queries, seed)

    reference = [result.rids for result
                 in QueryEngine().execute_batch(batch)]

    def build_engine(injector=None):
        return ShardedEngine(shards=shards, partitioner=partitioner,
                             replication=replication, strict=False,
                             deadline_cycles=deadline_cycles,
                             hedge_fraction=hedge_fraction,
                             breaker_threshold=breaker_threshold,
                             breaker_cooldown=breaker_cooldown,
                             fault_injector=injector)

    # Fault-free sharded baseline: calibrates the deadline and the
    # hang fuel, and sanity-checks the harness's own parity.
    deadline_cycles = None
    baseline = build_engine()
    base_results = baseline.execute_batch(batch)
    for index, (result, expected) in enumerate(zip(base_results,
                                                   reference)):
        if result.rids != expected:
            raise AssertionError("fault-free sharded run diverged on "
                                 "query %d" % index)
    max_shard = max(max(result.shard_cycles)
                    for result in base_results)
    max_makespan = max(result.makespan_cycles
                       for result in base_results)
    if deadline == "auto":
        deadline_cycles = 8 * max(1, max_shard)
    elif deadline in (None, "none"):
        deadline_cycles = None
    else:
        deadline_cycles = int(deadline)
    fuel = HANG_FUEL_FACTOR * max(1, max_makespan)
    profile = DbTrialProfile(shards=shards, queries=len(batch),
                             delay_scale=4 * max(1, max_shard))

    trial_reports = []
    fault_totals = {name: 0 for name in FAULT_COUNTERS}
    breaker_trips = 0
    for trial in range(trials):
        rng = random.Random("db-chaos:%d:%d:%d:%d:%s:%s:%d"
                            % (shards, replication, rows, len(batch),
                               seed, ",".join(kinds), trial))
        plan = sample_db_plan(rng, profile, kinds)
        injector = DbFaultInjector(plan)
        engine = build_engine(injector)
        outcome = detail = None
        degraded_queries = failovers = 0
        try:
            results = engine.execute_batch(batch)
        except Exception as exc:
            outcome = "failed"
            detail = "%s: %s" % (type(exc).__name__, exc)
        else:
            outcome, detail, degraded_queries, failovers = \
                _classify(results, reference, fuel)
        snapshot = engine.metrics_snapshot()
        for name in fault_totals:
            fault_totals[name] += snapshot.get("db.fault." + name, 0)
        breaker_trips += sum(
            snapshot.get("db.shard.%d.breaker.trips" % position, 0)
            for position in range(shards))
        report = {"trial": trial,
                  "faults": plan.to_dict()["faults"],
                  "fired": len(injector.fired),
                  "outcome": outcome,
                  "queries_degraded": degraded_queries,
                  "failovers": failovers}
        if detail is not None:
            report["detail"] = detail
        trial_reports.append(report)
        if log is not None:
            log("trial %2d: %-12s %s"
                % (trial, outcome,
                   "; ".join(fault.describe() for fault in plan)))

    summary = {name: 0 for name in DB_OUTCOMES}
    fired = 0
    for report in trial_reports:
        summary[report["outcome"]] += 1
        fired += report["fired"]

    campaign = {"layer": "db", "shards": shards,
                "replication": replication, "rows": rows,
                "queries": len(batch), "trials": trials,
                "seed": seed, "kinds": list(kinds),
                "partitioner": partitioner,
                "deadline_cycles": deadline_cycles,
                "fuel_cycles": fuel,
                "breaker_threshold": breaker_threshold,
                "breaker_cooldown": breaker_cooldown}
    if delta_report is not None:
        campaign["delta"] = delta_report
    return {
        "campaign": campaign,
        "trials": trial_reports,
        "summary": summary,
        "fired": fired,
        "faults": {"db.fault.%s" % name: value
                   for name, value in sorted(fault_totals.items())},
        "breaker_trips": breaker_trips,
    }
