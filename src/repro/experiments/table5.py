"""Experiment E5 — the paper's Table 5 (merge-sort comparison).

hwsort (our merge-sort instructions on DBA_2LSU_EIS, 6500 values) vs
swsort (Chhugani et al.'s SIMD merge-sort on an Intel Q9550, published
single-thread throughput for 512K values).  The swsort column is both
quoted (published number) and re-derived from the executable baseline's
cost model.
"""

from ..baselines.swsort import REFERENCE_SIZE
from ..baselines.x86 import (PUBLISHED_SWSORT_MEPS, Q9550,
                             extrapolate_sort_throughput)
from ..configs.catalog import build_processor
from ..core.kernels import run_merge_sort
from ..synth.synthesis import synthesize_config
from ..workloads.sorting import random_values
from .base import ExperimentResult

#: The paper's Table 5.
PAPER_TABLE5 = {
    "Intel Q9550": {"throughput_meps": 60.0, "clock_mhz": 3220,
                    "tdp_w": 95.0, "cores": "4/4", "feature_nm": 45,
                    "area_mm2": 214.0},
    "DBA_2LSU_EIS": {"throughput_meps": 28.3, "clock_mhz": 410,
                     "tdp_w": 0.135, "cores": "1/1", "feature_nm": 65,
                     "area_mm2": 1.5},
}


def run(sort_size=6500, swsort_sample=8192, seed=42,
        cost_model=False):
    """Regenerate the merge-sort comparison table.

    *cost_model* opts into the calibrated cost-model fast path for the
    hwsort cycle count (bit-exact vs the ISS; default stays ISS).
    """
    report = synthesize_config("DBA_2LSU_EIS")
    processor = build_processor("DBA_2LSU_EIS")
    values = random_values(sort_size, seed=seed)
    if cost_model:
        from ..core.costmodel import default_cost_model
        output, cycles, _source = default_cost_model().merge_sort(
            processor, values)
    else:
        output, run_result = run_merge_sort(processor, values)
        cycles = run_result.cycles
    if list(output) != sorted(values):
        raise AssertionError("hwsort produced a wrong result")
    hw_throughput = len(values) * report.fmax_mhz / cycles \
        if cycles else 0.0

    sample = random_values(swsort_sample, seed=seed + 1)
    sw_throughput = extrapolate_sort_throughput(sample, REFERENCE_SIZE)

    rows = [
        ["Intel Q9550 (swsort)", round(sw_throughput, 1),
         round(Q9550.clock_mhz), Q9550.tdp_w,
         "%d/%d" % (Q9550.cores, Q9550.threads), Q9550.feature_nm,
         Q9550.die_mm2],
        ["DBA_2LSU_EIS (hwsort)", round(hw_throughput, 1),
         round(report.fmax_mhz), round(report.power_mw / 1000.0, 3),
         "1/1", 65, round(report.total_mm2, 1)],
    ]
    notes = ["swsort model calibrated to the published %.0f M/s at "
             "%d values" % (PUBLISHED_SWSORT_MEPS, REFERENCE_SIZE),
             "hwsort sorts %d values (local-store capacity)"
             % sort_size]
    if cost_model:
        notes.append("hwsort cycle count via the calibrated cost "
                     "model (bit-exact vs the ISS)")
    return ExperimentResult(
        "Table 5", "Merge-sort comparison",
        ["processor", "throughput_meps", "clock_mhz", "max_tdp_w",
         "cores_threads", "feature_nm", "area_mm2"],
        rows,
        notes=notes)
