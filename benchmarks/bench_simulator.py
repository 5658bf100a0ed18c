"""Meta-benchmarks: speed of the simulator substrate itself.

Not a paper experiment — these track the reproduction's own usability
(simulated instructions per host second, synthesis-model latency).
The instruction-rate benches time both interpreter modes — the
superblock fast path (default) and the reference loop
(``REPRO_NO_FASTPATH=1``) — and, when ``BENCH_REPORT_DIR`` is set,
write the speedup summary to ``BENCH_simulator.json`` (consumed by the
CI perf smoke; see docs/PERFORMANCE.md): the scalar merge sort at the
top level, the EIS merge sort under ``eis_sort``.
"""

import json
import os
import time

from conftest import run_once
from repro.core.scalar_kernels import run_scalar_merge_sort
from repro.workloads.sorting import random_values


def _best_of(fn, *args, repeats=3):
    """Best-of-N wall time and the last return value of *fn*."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _time_reference(fn, *args, repeats=3):
    """Best-of-N wall time of *fn* with the fast path disabled."""
    os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        return _best_of(fn, *args, repeats=repeats)
    finally:
        os.environ.pop("REPRO_NO_FASTPATH", None)


def _write_speedup_summary(payload):
    """Merge *payload* into the BENCH_simulator.json record, if requested."""
    directory = os.environ.get("BENCH_REPORT_DIR")
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "BENCH_simulator.json")
    summary = {}
    if os.path.exists(path):
        with open(path) as handle:
            summary = json.load(handle)
    summary.update(payload)
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return path


def test_simulator_instruction_rate(benchmark, processors):
    """Simulated instructions per host second on the scalar sort."""
    processor = processors[("DBA_1LSU", None)]
    values = random_values(2000, seed=1)

    # warm the kernel/fastpath caches so neither mode pays assembly
    # or compile time inside its measurement window
    run_scalar_merge_sort(processor, values)

    result, stats = run_once(benchmark, run_scalar_merge_sort,
                             processor, values)
    assert result == sorted(values)

    fast_seconds, (_fast_result, fast_stats) = _best_of(
        run_scalar_merge_sort, processor, values)
    ref_seconds, (ref_result, ref_stats) = _time_reference(
        run_scalar_merge_sort, processor, values)
    assert ref_result == result
    assert ref_stats.cycles == fast_stats.cycles
    assert fast_stats.stats.metric("cpu.run.fastpath") == 1
    assert ref_stats.stats.metric("cpu.run.fastpath") == 0

    fast_rate = int(fast_stats.instructions / fast_seconds)
    ref_rate = int(ref_stats.instructions / ref_seconds)
    speedup = ref_seconds / fast_seconds
    benchmark.extra_info["instructions"] = stats.instructions
    benchmark.extra_info["sim_instructions_per_second"] = fast_rate
    benchmark.extra_info["sim_instructions_per_second_reference"] = \
        ref_rate
    benchmark.extra_info["fastpath_speedup"] = round(speedup, 2)
    _write_speedup_summary({
        "benchmark": "simulator_fastpath",
        "workload": "scalar merge sort",
        "config": "DBA_1LSU",
        "size": len(values),
        "instructions": fast_stats.instructions,
        "cycles": fast_stats.cycles,
        "fast": {"seconds": fast_seconds,
                 "sim_instructions_per_second": fast_rate},
        "reference": {"seconds": ref_seconds,
                      "sim_instructions_per_second": ref_rate},
        "speedup": round(speedup, 3),
    })


def test_eis_simulation_rate(benchmark, processors, paper_sets,
                             paper_sort_values):
    """Bundles per host second on the EIS intersection kernel.

    Also times the EIS merge sort on both paths and records its fast
    path speedup as ``eis_sort`` in ``BENCH_simulator.json``.
    """
    from repro.core.kernels import run_merge_sort, run_set_operation
    processor = processors[("DBA_2LSU_EIS", True)]
    set_a, set_b = paper_sets
    run_set_operation(processor, "intersection", set_a, set_b)
    _result, stats = run_once(benchmark, run_set_operation, processor,
                              "intersection", set_a, set_b)
    seconds = benchmark.stats["mean"]
    benchmark.extra_info["issues_per_second"] = \
        int(stats.instructions / seconds)
    ref_seconds, (_ref_result, ref_stats) = _time_reference(
        run_set_operation, processor, "intersection", set_a, set_b,
        repeats=1)
    benchmark.extra_info["issues_per_second_reference"] = \
        int(ref_stats.instructions / ref_seconds)

    values = paper_sort_values
    fast_seconds, (output, fast_stats) = _best_of(
        run_merge_sort, processor, values)
    ref_seconds, (ref_output, ref_stats) = _time_reference(
        run_merge_sort, processor, values)
    assert output == ref_output == sorted(values)
    assert ref_stats.cycles == fast_stats.cycles
    assert fast_stats.stats.metric("cpu.run.fastpath") == 1
    assert ref_stats.stats.metric("cpu.run.fastpath") == 0
    speedup = ref_seconds / fast_seconds
    benchmark.extra_info["eis_sort_fastpath_speedup"] = round(speedup, 2)
    _write_speedup_summary({"eis_sort": {
        "benchmark": "simulator_fastpath",
        "workload": "EIS merge sort",
        "config": "DBA_2LSU_EIS",
        "size": len(values),
        "instructions": fast_stats.instructions,
        "cycles": fast_stats.cycles,
        "fast": {"seconds": fast_seconds,
                 "sim_instructions_per_second":
                     int(fast_stats.instructions / fast_seconds)},
        "reference": {"seconds": ref_seconds,
                      "sim_instructions_per_second":
                          int(ref_stats.instructions / ref_seconds)},
        "speedup": round(speedup, 3),
    }})
