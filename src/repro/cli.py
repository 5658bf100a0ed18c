"""Command-line interface.

::

    repro run intersection --size 5000 --selectivity 0.5
    repro run sort --size 6500 --config DBA_1LSU_EIS
    repro run intersection --json --trace-out trace.json
    repro synth --config DBA_2LSU_EIS --tech gf28slp
    repro experiments table2 figure13 --artifacts out/
    repro experiments --parallel 4 --timeout 600 --retries 1
    repro db bench --rows 800 --queries 64 --json
    repro disasm intersection --config DBA_2LSU_EIS
    repro report out/run.json
    repro lint
    repro lint examples/asm/*.s --config DBA_2LSU_EIS
    repro faults campaign --kernel intersection --trials 50

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

import argparse
import sys

from .configs.catalog import CONFIG_NAMES, build_processor
from .core.kernels import (merge_sort_kernel, run_merge_sort,
                           run_set_operation, set_operation_kernel)
from .core.scalar_kernels import (run_scalar_merge_sort,
                                  run_scalar_set_operation)
from .isa.disasm import disassemble_words
from .synth.synthesis import synthesize_config
from .synth.technology import TECHNOLOGIES
from .workloads.sets import generate_set_pair
from .workloads.sorting import random_values

SET_OPS = ("intersection", "union", "difference")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Database-processor reproduction (SIGMOD 2014)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run a primitive on a "
                                         "processor configuration")
    run_cmd.add_argument("workload",
                         choices=SET_OPS + ("sort", "query"))
    run_cmd.add_argument("--config", default="DBA_2LSU_EIS",
                         choices=CONFIG_NAMES)
    run_cmd.add_argument("--size", type=int, default=5000,
                         help="elements per set / values to sort")
    run_cmd.add_argument("--selectivity", type=float, default=0.5)
    run_cmd.add_argument("--no-partial-load", action="store_true")
    run_cmd.add_argument("--seed", type=int, default=42)
    run_cmd.add_argument("--cost-model", action="store_true",
                         help="serve the 'query' workload through the "
                              "calibrated cost model instead of the ISS "
                              "(cycle counts are identical)")
    run_cmd.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes for the 'query' "
                              "workload batch (default %(default)s); "
                              "with --trace-out the merged trace shows "
                              "one Perfetto process per worker")
    run_cmd.add_argument("--json", action="store_true",
                         help="print a structured run report as JSON "
                              "instead of the text summary")
    run_cmd.add_argument("--report-out", metavar="FILE",
                         help="also write the JSON run report to FILE")
    run_cmd.add_argument("--trace-out", metavar="FILE",
                         help="write a Chrome trace-event JSON file "
                              "(chrome://tracing / Perfetto loadable)")
    run_cmd.add_argument("--trace-limit", type=int, default=100_000,
                         help="maximum trace events to record "
                              "(default %(default)s; excess is counted "
                              "as dropped)")

    synth_cmd = sub.add_parser("synth", help="synthesize a "
                                             "configuration")
    synth_cmd.add_argument("--config", default="DBA_2LSU_EIS",
                           choices=CONFIG_NAMES)
    synth_cmd.add_argument("--tech", default="tsmc65lp",
                           choices=sorted(TECHNOLOGIES))
    synth_cmd.add_argument("--breakdown", action="store_true",
                           help="print the Table 4 area breakdown")

    exp_cmd = sub.add_parser("experiments",
                             help="regenerate paper tables/figures")
    exp_cmd.add_argument("names", nargs="*", help="experiment ids "
                                                  "(default: all)")
    exp_cmd.add_argument("--quick", action="store_true")
    exp_cmd.add_argument("--cost-model", action="store_true",
                         help="use the calibrated cost model for kernel "
                              "cycle counts where supported (table2, "
                              "table5); bit-exact vs the ISS")
    exp_cmd.add_argument("--artifacts", metavar="DIR",
                         help="write one machine-readable JSON artifact "
                              "per experiment into DIR")
    exp_cmd.add_argument("--parallel", type=int, default=1, metavar="N",
                         help="fan independent experiments over N worker "
                              "processes")
    exp_cmd.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-experiment supervisor budget "
                              "(parallel mode)")
    exp_cmd.add_argument("--retries", type=int, default=1, metavar="N",
                         help="supervisor retry budget per experiment "
                              "(default %(default)s)")

    db_cmd = sub.add_parser("db", help="query-engine utilities")
    db_sub = db_cmd.add_subparsers(dest="db_command", required=True)
    db_bench_cmd = db_sub.add_parser(
        "bench",
        help="benchmark batched query serving: calibrated cost-model "
             "fast path vs the ISS")
    db_bench_cmd.add_argument("--config", default="DBA_2LSU_EIS",
                              choices=CONFIG_NAMES)
    db_bench_cmd.add_argument("--rows", type=int, default=800,
                              help="table rows (default %(default)s)")
    db_bench_cmd.add_argument("--queries", type=int, default=64,
                              help="queries per batch "
                                   "(default %(default)s)")
    db_bench_cmd.add_argument("--repeat", type=int, default=3,
                              help="timed rounds per path; best is "
                                   "reported (default %(default)s)")
    db_bench_cmd.add_argument("--seed", type=int, default=42)
    db_bench_cmd.add_argument("--json", action="store_true",
                              help="print the full benchmark report as "
                                   "JSON")
    db_bench_cmd.add_argument("--out", metavar="FILE",
                              help="write the JSON benchmark report to "
                                   "FILE")
    db_bench_cmd.add_argument("--workers", type=int, default=1,
                              metavar="N",
                              help="worker processes for the traced "
                                   "serving pass (default %(default)s)")
    db_bench_cmd.add_argument("--trace-out", metavar="FILE",
                              help="write a merged Perfetto query "
                                   "trace of one serving pass")
    db_bench_cmd.add_argument("--shards", type=int, default=0,
                              metavar="N",
                              help="additionally serve the batch "
                                   "through a sharded engine with N "
                                   "shards and report modeled scale-"
                                   "out speedup + parity")

    db_top_cmd = db_sub.add_parser(
        "top",
        help="live terminal view of a serving engine (throughput, "
             "queue depth, worker utilization, cache hit rates, "
             "p50/p95/p99 query cycles)")
    db_top_cmd.add_argument("--config", default="DBA_2LSU_EIS",
                            choices=CONFIG_NAMES)
    db_top_cmd.add_argument("--rows", type=int, default=400,
                            help="table rows (default %(default)s)")
    db_top_cmd.add_argument("--queries", type=int, default=32,
                            help="queries per batch "
                                 "(default %(default)s)")
    db_top_cmd.add_argument("--workers", type=int, default=1,
                            metavar="N",
                            help="worker processes per batch "
                                 "(default %(default)s)")
    db_top_cmd.add_argument("--frames", type=int, default=0,
                            metavar="N",
                            help="frames to render before exiting "
                                 "(default: run until interrupted)")
    db_top_cmd.add_argument("--interval", type=float, default=1.0,
                            metavar="SECONDS",
                            help="delay between frames "
                                 "(default %(default)s)")
    db_top_cmd.add_argument("--seed", type=int, default=42)
    db_top_cmd.add_argument("--no-clear", action="store_true",
                            help="append frames instead of redrawing "
                                 "(for logs and tests)")
    db_top_cmd.add_argument("--metrics-out", metavar="FILE",
                            help="flush one JSONL metrics snapshot "
                                 "per frame to FILE")
    db_top_cmd.add_argument("--shards", type=int, default=0,
                            metavar="N",
                            help="serve through a sharded engine with "
                                 "N shards; the dashboard gains a "
                                 "per-shard row (cycles, rows, queue "
                                 "depth, skew)")

    db_chaos_cmd = db_sub.add_parser(
        "chaos",
        help="seeded db-layer fault campaign against the sharded "
             "serving tier (worker kills, response delays, response "
             "corruption); byte-identical reports per seed")
    db_chaos_cmd.add_argument("--shards", type=int, default=4,
                              metavar="N",
                              help="shard engines "
                                   "(default %(default)s)")
    db_chaos_cmd.add_argument("--replicas", type=int, default=1,
                              metavar="R",
                              help="replicas per shard, 0..shards-1 "
                                   "(default %(default)s)")
    db_chaos_cmd.add_argument("--trials", type=int, default=24,
                              help="fault trials to run "
                                   "(default %(default)s)")
    db_chaos_cmd.add_argument("--rows", type=int, default=512,
                              help="table rows (default %(default)s)")
    db_chaos_cmd.add_argument("--queries", type=int, default=12,
                              help="queries per trial batch "
                                   "(default %(default)s)")
    db_chaos_cmd.add_argument("--seed", type=int, default=42)
    db_chaos_cmd.add_argument("--kinds", default="kill,delay,corrupt",
                              metavar="LIST",
                              help="comma list of fault kinds to "
                                   "sample: kill, delay, corrupt "
                                   "(default %(default)s)")
    db_chaos_cmd.add_argument("--deadline", default="auto",
                              metavar="CYCLES",
                              help="per-shard serve budget in modeled "
                                   "cycles; 'auto' = 8x the fault-"
                                   "free maximum, 'none' disarms it "
                                   "(wedged responses then classify "
                                   "as hang) (default %(default)s)")
    db_chaos_cmd.add_argument("--partitioner", default="hash",
                              choices=("hash", "range"))
    db_chaos_cmd.add_argument("--breaker-threshold", type=int,
                              default=3, metavar="N",
                              help="consecutive failures before a "
                                   "shard's breaker opens "
                                   "(default %(default)s)")
    db_chaos_cmd.add_argument("--breaker-cooldown", type=int,
                              default=4, metavar="N",
                              help="refused dispatches before the "
                                   "half-open probe "
                                   "(default %(default)s)")
    db_chaos_cmd.add_argument("--delta-batches", type=int, default=0,
                              metavar="N",
                              help="apply N Z-set delta batches to "
                                   "the table before the campaign "
                                   "(0 keeps the static demo table) "
                                   "(default %(default)s)")
    db_chaos_cmd.add_argument("--delta-rows", type=int, default=32,
                              metavar="R",
                              help="inserted rows per delta batch "
                                   "(deletes run at R/2) "
                                   "(default %(default)s)")
    db_chaos_cmd.add_argument("--json", action="store_true",
                              help="print the full campaign report "
                                   "as JSON")
    db_chaos_cmd.add_argument("--out", metavar="FILE",
                              help="write the JSON campaign report "
                                   "to FILE")

    bench_cmd = sub.add_parser(
        "bench", help="perf-trajectory utilities over BENCH_*.json "
                      "artifacts")
    bench_sub = bench_cmd.add_subparsers(dest="bench_command",
                                         required=True)
    bench_record_cmd = bench_sub.add_parser(
        "record",
        help="distill a BENCH_REPORT_DIR into one BENCH_history.json "
             "entry (the per-PR trajectory point)")
    bench_record_cmd.add_argument("--reports", default="bench-reports",
                                  metavar="DIR",
                                  help="directory of BENCH_*.json "
                                       "artifacts "
                                       "(default %(default)s)")
    bench_record_cmd.add_argument("--history",
                                  default="BENCH_history.json",
                                  metavar="FILE",
                                  help="history file to append to "
                                       "(default %(default)s)")
    bench_record_cmd.add_argument("--label", default=None,
                                  help="entry label (default: "
                                       "$GITHUB_SHA or 'local')")
    bench_compare_cmd = bench_sub.add_parser(
        "compare",
        help="diff a fresh BENCH_REPORT_DIR against the last history "
             "entry; exits nonzero on regressions beyond the "
             "threshold (the CI gate)")
    bench_compare_cmd.add_argument("--reports",
                                   default="bench-reports",
                                   metavar="DIR",
                                   help="directory of BENCH_*.json "
                                        "artifacts "
                                        "(default %(default)s)")
    bench_compare_cmd.add_argument("--history",
                                   default="BENCH_history.json",
                                   metavar="FILE",
                                   help="baseline history file "
                                        "(default %(default)s)")
    bench_compare_cmd.add_argument("--threshold", type=float,
                                   default=0.2,
                                   help="regression threshold as a "
                                        "fraction "
                                        "(default %(default)s = 20%%)")
    bench_compare_cmd.add_argument("--include-noisy",
                                   action="store_true",
                                   help="gate on wall-clock metrics "
                                        "too (default: deterministic "
                                        "cycle/model metrics only)")
    bench_compare_cmd.add_argument("--json", action="store_true",
                                   help="emit the comparison as JSON")

    report_cmd = sub.add_parser("report",
                                help="summarize saved JSON run reports")
    report_cmd.add_argument("files", nargs="+", metavar="FILE",
                            help="run-report JSON files (from "
                                 "'repro run --report-out' or the "
                                 "benchmark harness)")

    disasm_cmd = sub.add_parser("disasm",
                                help="disassemble a kernel")
    disasm_cmd.add_argument("kernel", choices=SET_OPS + ("sort",))
    disasm_cmd.add_argument("--config", default="DBA_2LSU_EIS",
                            choices=CONFIG_NAMES)
    disasm_cmd.add_argument("--unroll", type=int, default=4)

    lint_cmd = sub.add_parser(
        "lint", help="statically verify kernel programs and TIE "
                     "definitions")
    lint_cmd.add_argument("files", nargs="*", metavar="FILE",
                          help="assembly sources to lint; without "
                               "arguments every builtin kernel of every "
                               "configuration is checked")
    lint_cmd.add_argument("--config", default=None, choices=CONFIG_NAMES,
                          help="configuration to assemble/lint against "
                               "(default: DBA_2LSU_EIS for files, all "
                               "configurations for the builtin sweep)")
    lint_cmd.add_argument("--min-severity", default="warning",
                          choices=("info", "warning", "error"),
                          help="lowest severity to print "
                               "(default %(default)s)")
    lint_cmd.add_argument("--deep", action="store_true",
                          help="also run the deep tier: value-range "
                               "abstract interpretation (VAL*), "
                               "DMA/LSU race detection (RACE*) on "
                               "streaming kernels, and plan lint "
                               "(PLAN*) over the demo query batch")
    lint_cmd.add_argument("--json", action="store_true",
                          help="emit the full diagnostic list as JSON")

    faults_cmd = sub.add_parser(
        "faults", help="seeded fault-injection campaigns")
    faults_sub = faults_cmd.add_subparsers(dest="faults_command",
                                           required=True)
    campaign_cmd = faults_sub.add_parser(
        "campaign",
        help="run one kernel N times under sampled faults and "
             "classify the outcomes")
    campaign_cmd.add_argument("--kernel", default="intersection",
                              choices=("dma_poll", "intersection",
                                       "scalar"))
    campaign_cmd.add_argument("--config", default=None,
                              choices=CONFIG_NAMES,
                              help="processor configuration (default: "
                                   "the kernel's natural one)")
    campaign_cmd.add_argument("--size", type=int, default=400,
                              help="workload elements "
                                   "(default %(default)s)")
    campaign_cmd.add_argument("--trials", type=int, default=20,
                              help="fault trials to run "
                                   "(default %(default)s)")
    campaign_cmd.add_argument("--seed", type=int, default=42)
    campaign_cmd.add_argument("--parallel", type=int, default=1,
                              metavar="N",
                              help="fan trial chunks over N supervised "
                                   "worker processes")
    campaign_cmd.add_argument("--timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-chunk supervisor budget "
                                   "(parallel mode)")
    campaign_cmd.add_argument("--retries", type=int, default=1,
                              metavar="N",
                              help="supervisor retry budget per chunk "
                                   "(default %(default)s)")
    campaign_cmd.add_argument("--json", action="store_true",
                              help="print the full campaign report as "
                                   "JSON")
    campaign_cmd.add_argument("--out", metavar="FILE",
                              help="write the JSON campaign report to "
                                   "FILE")
    return parser


def cmd_run(args):
    if args.workload == "query":
        return _run_query_workload(args)
    partial = not args.no_partial_load
    processor = build_processor(args.config, partial_load=partial)
    synth = synthesize_config(args.config, partial_load=partial)
    has_eis = args.config.endswith("_EIS")
    tracer = None
    if args.trace_out:
        from .cpu.trace import PipelineTracer
        tracer = PipelineTracer(limit=args.trace_limit)
    if args.workload == "sort":
        values = random_values(args.size, seed=args.seed)
        runner = run_merge_sort if has_eis else run_scalar_merge_sort
        output, stats = runner(processor, values, trace=tracer)
        assert output == sorted(values)
        elements = args.size
        summary = "sorted %d values" % args.size
    else:
        set_a, set_b = generate_set_pair(
            args.size, selectivity=args.selectivity, seed=args.seed)
        runner = run_set_operation if has_eis \
            else run_scalar_set_operation
        output, stats = runner(processor, args.workload, set_a, set_b,
                               trace=tracer)
        elements = 2 * args.size
        summary = "%s of 2x%d elements -> %d results" % (
            args.workload, args.size, len(output))
    meps = stats.throughput_meps(elements, synth.fmax_mhz)
    report = stats.report(
        workload=args.workload, config=args.config, elements=elements,
        clock_mhz=synth.fmax_mhz,
        meta={"size": args.size, "seed": args.seed,
              "partial_load": partial, "results": len(output),
              "power_mw": synth.power_mw,
              "energy_nj_per_element": synth.power_mw / meps
              if meps else None})
    if tracer is not None:
        tracer.save_chrome_trace(args.trace_out)
    if args.report_out:
        report.save(args.report_out)
    if args.json:
        print(report.to_json())
        return 0
    print("%s on %s (%.0f MHz)" % (summary, args.config,
                                   synth.fmax_mhz))
    print("  %d cycles, %.1f Melem/s, %.3f nJ/element"
          % (stats.cycles, meps, synth.power_mw / meps))
    if tracer is not None:
        print("  trace: %d events -> %s%s" % (
            len(tracer.events), args.trace_out,
            " (%d dropped)" % tracer.dropped if tracer.dropped else ""))
    if args.report_out:
        print("  report: %s" % args.report_out)
    return 0


def _run_query_workload(args):
    """Serve a canned query batch; the report carries QueryStats."""
    from .db import RID_BITS, QueryStats
    from .db.bench import build_demo_table, demo_queries
    from .db.engine import QueryEngine
    from .db.executor import _merge_stats
    from .telemetry.querytrace import QueryTracer, write_query_trace
    from .telemetry.report import RunReport

    partial = not args.no_partial_load
    rows = min(args.size, 1 << RID_BITS)  # ORDER BY packing bound
    table = build_demo_table(rows=rows, seed=args.seed)
    batch = demo_queries(table, count=32, seed=args.seed + 1)
    engine = QueryEngine(config=args.config, partial_load=partial,
                         cost_model=args.cost_model)
    tracer = None
    if args.trace_out:
        tracer = QueryTracer(label="query engine",
                             limit=args.trace_limit)
    results = engine.execute_batch(batch, workers=args.workers,
                                   tracer=tracer)
    totals = QueryStats()
    for result in results:
        _merge_stats(totals, result.stats)
    synth = synthesize_config(args.config, partial_load=partial)
    meta = {"size": rows, "seed": args.seed, "partial_load": partial,
            "cost_model": bool(args.cost_model),
            "workers": args.workers,
            "query_stats": totals.to_dict(),
            "engine_metrics": {
                name: value for name, value
                in engine.metrics_snapshot().items()
                if isinstance(value, (int, float))}}
    if tracer is not None:
        write_query_trace(args.trace_out, tracer)
        meta["trace"] = {
            "path": args.trace_out,
            "processes": 1 + len(tracer.children),
            "dropped": tracer.total_dropped,
        }
    report = RunReport(
        workload="query", config=args.config, cycles=totals.cycles,
        instructions=0,
        derived={
            "queries": len(batch),
            "rows_returned": sum(len(result.rows)
                                 for result in results),
            "latency_us": totals.latency_us(synth.fmax_mhz),
        },
        meta=meta)
    if args.report_out:
        report.save(args.report_out)
    if args.json:
        print(report.to_json())
        return 0
    print("%d queries over %d rows on %s (%.0f MHz, %s path, "
          "%d worker%s)"
          % (len(batch), rows, args.config, synth.fmax_mhz,
             "cost-model" if args.cost_model else "iss",
             args.workers, "" if args.workers == 1 else "s"))
    print("  %d cycles (%s), %d set ops, %d sorts, %d scans, "
          "%d short-circuits"
          % (totals.cycles,
             ", ".join("%s %d" % (source, cycles) for source, cycles
                       in sorted(totals.cycles_by_source.items())),
             totals.set_operations, totals.sort_operations,
             totals.index_scans, totals.short_circuits))
    if tracer is not None:
        print("  trace: %d processes -> %s%s" % (
            1 + len(tracer.children), args.trace_out,
            " (%d dropped)" % tracer.total_dropped
            if tracer.total_dropped else ""))
    if args.report_out:
        print("  report: %s" % args.report_out)
    return 0


def cmd_synth(args):
    report = synthesize_config(args.config,
                               technology=TECHNOLOGIES[args.tech])
    print("%s @ %s" % (args.config, args.tech))
    print("  logic  %.3f mm2" % report.logic_mm2)
    print("  memory %.3f mm2 (%d KB)" % (report.memory_mm2,
                                         report.memory_kb))
    print("  fmax   %.0f MHz" % report.fmax_mhz)
    print("  power  %.1f mW at fmax" % report.power_mw)
    if args.breakdown:
        print("  area breakdown:")
        for group, share in report.breakdown().items():
            print("    %-18s %5.1f%%" % (group, share * 100))
    return 0


def cmd_experiments(args):
    from .experiments.__main__ import main as experiments_main
    argv = list(args.names)
    if args.quick:
        argv.append("--quick")
    if args.cost_model:
        argv.append("--cost-model")
    if args.artifacts:
        argv.extend(["--artifacts", args.artifacts])
    if args.parallel and args.parallel != 1:
        argv.extend(["--parallel", str(args.parallel)])
    if args.timeout is not None:
        argv.extend(["--timeout", str(args.timeout)])
    if args.retries != 1:
        argv.extend(["--retries", str(args.retries)])
    return experiments_main(argv)


def cmd_report(args):
    from .telemetry.report import RunReport
    status = 0
    for index, path in enumerate(args.files):
        if index:
            print()
        try:
            report = RunReport.load(path)
        except (OSError, ValueError) as exc:
            print("%s: %s" % (path, exc))
            status = 1
            continue
        print(report.summary())
    return status


def cmd_disasm(args):
    processor = build_processor(args.config)
    if args.kernel == "sort":
        source = merge_sort_kernel(presort_unroll=args.unroll,
                                   merge_unroll=args.unroll)
    else:
        source = set_operation_kernel(
            args.kernel, num_lsus=processor.config.num_lsus,
            unroll=args.unroll)
    program = processor.assembler.assemble(source)
    for line in disassemble_words(processor.isa, program.encode(),
                                  processor.flix_formats):
        print(line)
    return 0


def _streaming_kernel_sources(processor, compression):
    """The DMA double-buffering kernels, for the deep (race) tier."""
    from .core.streaming import (compressed_streaming_kernel,
                                 streaming_kernel)
    if "sop_ptr_c" not in processor.symbols:
        return  # no set-operation datapath on this core
    num_lsus = processor.config.num_lsus
    for which in ("intersection", "union", "difference"):
        for overlap in (True, False):
            mode = "ov" if overlap else "bl"
            yield ("stream-%s-%s" % (which, mode),
                   streaming_kernel(which, num_lsus, overlap))
            if compression:
                yield ("cstream-%s-%s" % (which, mode),
                       compressed_streaming_kernel(which, num_lsus,
                                                   overlap))


def _demo_plan_report():
    """PLAN* lint over the demo query batch (the deep tier)."""
    from .db.bench import build_demo_table, demo_queries
    from .db.planlint import lint_query

    report = None
    table = build_demo_table()
    for query in demo_queries(table):
        report = lint_query(query, report=report)
    return report


def cmd_lint(args):
    import json as json_module

    from .analysis import DiagnosticReport, lint_processor, lint_program
    from .configs.catalog import has_eis
    from .core.kernels import builtin_kernel_sources
    from .faults.campaign import campaign_kernel_sources
    from .isa.errors import IsaError

    combined = DiagnosticReport("repro lint")
    status = 0
    if args.files:
        config = args.config or "DBA_2LSU_EIS"
        processor = build_processor(config,
                                    compression=has_eis(config))
        for path in args.files:
            try:
                with open(path) as handle:
                    source = handle.read()
            except OSError as exc:
                print("%s: %s" % (path, exc), file=sys.stderr)
                status = 1
                continue
            try:
                program = processor.assembler.assemble(source, path)
            except IsaError as exc:
                combined.add("ASM001", "error", str(exc), path)
                continue
            combined.extend(lint_program(program, processor,
                                         deep=args.deep))
    else:
        names = (args.config,) if args.config else CONFIG_NAMES
        for name in names:
            processor = build_processor(name, compression=has_eis(name))
            tie_report = lint_processor(processor)
            for diagnostic in tie_report:
                diagnostic.source_name = "%s/%s" % (name,
                                                    diagnostic.source_name)
            combined.extend(tie_report)
            for kernel_name, source in builtin_kernel_sources(processor):
                program = processor.assembler.assemble(
                    source, "%s/%s" % (name, kernel_name))
                combined.extend(lint_program(program, processor,
                                             deep=args.deep))
            # Campaign-only kernels use the DMA user registers, which
            # exist only on prefetcher-equipped cores.
            fault_processor = build_processor(name, prefetcher=True,
                                              compression=has_eis(name))
            for kernel_name, source in campaign_kernel_sources():
                program = fault_processor.assembler.assemble(
                    source, "%s/%s" % (name, kernel_name))
                combined.extend(lint_program(program, fault_processor,
                                             deep=args.deep))
            if args.deep:
                for kernel_name, source in _streaming_kernel_sources(
                        fault_processor, has_eis(name)):
                    program = fault_processor.assembler.assemble(
                        source, "%s/%s" % (name, kernel_name))
                    combined.extend(lint_program(program,
                                                 fault_processor,
                                                 deep=True))
        if args.deep:
            combined.extend(_demo_plan_report())
    if combined.has_errors:
        status = 1
    if args.json:
        print(json_module.dumps(combined.to_dict(), indent=2))
        return status
    output = combined.format(min_severity=args.min_severity)
    if output:
        print(output)
    print(combined.summary())
    return status


def _cmd_db_chaos(args):
    import json as json_module

    from .faults.db import DB_OUTCOMES, run_db_campaign

    kinds = tuple(kind.strip() for kind in args.kinds.split(",")
                  if kind.strip())
    log = None if args.json else print
    report = run_db_campaign(
        shards=args.shards, replication=args.replicas,
        trials=args.trials, seed=args.seed, rows=args.rows,
        queries=args.queries, deadline=args.deadline, kinds=kinds,
        partitioner=args.partitioner,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        delta_batches=args.delta_batches, delta_rows=args.delta_rows,
        log=log)
    if args.out:
        with open(args.out, "w") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    summary = report["summary"]
    bad = summary["wrong_result"] + summary["failed"]
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
        return 1 if bad else 0
    campaign = report["campaign"]
    print("db chaos campaign: %d shard(s) x %d replica(s) "
          "(%d trials, %d queries over %d rows, seed %s, kinds %s)"
          % (campaign["shards"], campaign["replication"],
             campaign["trials"], campaign["queries"], campaign["rows"],
             campaign["seed"], ",".join(campaign["kinds"])))
    deadline = campaign["deadline_cycles"]
    print("  deadline %s, fuel %d cycles"
          % ("%d cycles" % deadline if deadline else "disarmed",
             campaign["fuel_cycles"]))
    if "delta" in campaign:
        delta = campaign["delta"]
        print("  delta stream: %d batches x %d rows -> %d live rows "
              "in a %d-wide RID space (%d annihilated, "
              "%d compactions)"
              % (delta["batches"], delta["rows_per_batch"],
                 delta["live_rows"], delta["rid_limit"],
                 delta["annihilated"], delta["compactions"]))
    for name in DB_OUTCOMES:
        print("  %-12s %d" % (name, summary[name]))
    for name, value in sorted(report["faults"].items()):
        if value:
            print("  %-28s %d" % (name, value))
    if report["breaker_trips"]:
        print("  %-28s %d" % ("breaker trips", report["breaker_trips"]))
    for trial in report["trials"]:
        if trial["outcome"] in ("wrong_result", "failed"):
            print("  %s in trial %d: %s"
                  % (trial["outcome"], trial["trial"],
                     trial.get("detail", "?")))
    if args.out:
        print("  report: %s" % args.out)
    return 1 if bad else 0


def cmd_db(args):
    if args.db_command == "chaos":
        return _cmd_db_chaos(args)
    if args.db_command == "top":
        from .db.top import run_top

        run_top(config=args.config, rows=args.rows,
                queries=args.queries, workers=args.workers,
                frames=args.frames, interval=args.interval,
                seed=args.seed, clear=not args.no_clear,
                metrics_out=args.metrics_out, shards=args.shards)
        return 0

    import json as json_module

    from .db.bench import run_bench

    log = None if args.json else print
    report = run_bench(config=args.config, rows=args.rows,
                       queries=args.queries, repeat=args.repeat,
                       seed=args.seed, log=log, workers=args.workers,
                       trace_out=args.trace_out, shards=args.shards)
    if args.out:
        with open(args.out, "w") as handle:
            json_module.dump(report, handle, indent=2)
            handle.write("\n")
        if not args.json:
            print("  report: %s" % args.out)
    if args.json:
        print(json_module.dumps(report, indent=2))
    ok = (report["rid_parity"] and report["cycle_parity"]
          and report["row_parity"]
          and report.get("shard", {}).get("rid_parity", True))
    return 0 if ok else 1


def cmd_bench(args):
    import json as json_module
    import os

    from .telemetry.history import (append_entry, collect_reports,
                                    compare_reports_dir,
                                    entry_from_reports)

    if args.bench_command == "record":
        label = args.label
        if label is None:
            label = os.environ.get("GITHUB_SHA", "local")[:12] or "local"
        reports = collect_reports(args.reports)
        if not reports:
            print("no BENCH_*.json artifacts in %s" % args.reports)
            return 1
        entry = entry_from_reports(reports, label=label)
        history = append_entry(args.history, entry)
        print("recorded %d benchmarks as %r (%d entries in %s)"
              % (len(entry["benchmarks"]), label,
                 len(history["entries"]), args.history))
        return 0

    try:
        comparison = compare_reports_dir(
            args.reports, args.history, threshold=args.threshold,
            include_noisy=args.include_noisy)
    except FileNotFoundError as error:
        print("bench compare: %s" % error)
        return 1
    if args.json:
        print(json_module.dumps(comparison.to_dict(), indent=2,
                                sort_keys=True))
    else:
        print(comparison.format())
    return 0 if comparison.ok else 1


def cmd_faults(args):
    import json as json_module

    from .faults.campaign import OUTCOMES, run_campaign

    log = None if args.json else print
    report = run_campaign(
        args.kernel, config=args.config, size=args.size,
        trials=args.trials, seed=args.seed, jobs=args.parallel,
        timeout=args.timeout, retries=args.retries, log=log)
    if args.out:
        with open(args.out, "w") as handle:
            json_module.dump(report, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json_module.dumps(report, indent=2))
        return 1 if report["summary"]["crash"] else 0
    campaign = report["campaign"]
    summary = report["summary"]
    print("fault campaign: %s on %s (%d trials, size %d, seed %s)"
          % (campaign["kernel"], campaign["config"], campaign["trials"],
             campaign["size"], campaign["seed"]))
    for name in OUTCOMES:
        print("  %-12s %d" % (name, summary[name]))
    for trial in report["trials"]:
        if trial["outcome"] == "crash":
            print("  crash in trial %d: %s"
                  % (trial["trial"], trial.get("detail", "?")))
    if args.out:
        print("  report: %s" % args.out)
    return 1 if summary["crash"] else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "synth": cmd_synth,
        "experiments": cmd_experiments,
        "disasm": cmd_disasm,
        "report": cmd_report,
        "lint": cmd_lint,
        "db": cmd_db,
        "bench": cmd_bench,
        "faults": cmd_faults,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
