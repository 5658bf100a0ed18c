"""Experiment E1 — the paper's Table 2.

Maximum throughput (million elements per second) of the six processor
configurations for intersection, union, difference and merge-sort.
Workloads follow Section 5.2: two 5000-element sets at 50 % selectivity
and a 6500-element sort (the maxima that fit the local data memories).

Core frequencies come from the synthesis model (Table 3 column), so
this experiment exercises the full flow: netlist -> fmax -> cycle-level
simulation -> throughput.
"""

from ..configs.catalog import TABLE2_ROWS, build_processor, row_label
from ..core.kernels import run_merge_sort, run_set_operation
from ..core.scalar_kernels import (run_scalar_merge_sort,
                                   run_scalar_set_operation)
from ..synth.synthesis import synthesize_config
from ..workloads.sets import generate_set_pair
from ..workloads.sorting import random_values
from .base import ExperimentResult, lint_notes

#: The paper's Table 2 (million elements per second).
PAPER_TABLE2 = {
    ("108Mini", None): {"f": 442, "intersection": 31.3, "union": 26.4,
                        "difference": 35.7, "sort": 1.7},
    ("DBA_1LSU", None): {"f": 435, "intersection": 50.7, "union": 47.7,
                         "difference": 50.4, "sort": 3.2},
    ("DBA_1LSU_EIS", False): {"f": 424, "intersection": 513.4,
                              "union": 665.0, "difference": 658.8,
                              "sort": 29.3},
    ("DBA_2LSU_EIS", False): {"f": 410, "intersection": 693.0,
                              "union": 643.0, "difference": 637.0,
                              "sort": 28.3},
    ("DBA_1LSU_EIS", True): {"f": 424, "intersection": 859.0,
                             "union": 574.2, "difference": 859.0,
                             "sort": 29.3},
    ("DBA_2LSU_EIS", True): {"f": 410, "intersection": 1203.0,
                             "union": 780.4, "difference": 1192.6,
                             "sort": 28.3},
}

SET_OPS = ("intersection", "union", "difference")


def run(set_size=5000, sort_size=6500, selectivity=0.5, seed=42,
        rows=TABLE2_ROWS, check_results=True, cost_model=False):
    """Regenerate Table 2; smaller sizes preserve the shape.

    *cost_model* opts into the calibrated cost-model fast path for the
    kernel cycle counts (bit-exact vs the ISS by construction; any
    uncalibratable case silently falls back to simulation).  The ISS
    remains the default so the paper numbers keep their provenance.
    """
    model = None
    if cost_model:
        from ..core.costmodel import default_cost_model
        model = default_cost_model()
    set_a, set_b = generate_set_pair(set_size, selectivity=selectivity,
                                     seed=seed)
    sort_values = random_values(sort_size, seed=seed)
    truth = {
        "intersection": sorted(set(set_a) & set(set_b)),
        "union": sorted(set(set_a) | set(set_b)),
        "difference": sorted(set(set_a) - set(set_b)),
        "sort": sorted(sort_values),
    }
    result_rows = []
    notes = ["sets: 2x%d elements at %.0f%% selectivity; sort: %d "
             "values" % (set_size, selectivity * 100, sort_size)]
    linted = set()
    for name, partial in rows:
        processor = build_processor(name, partial_load=bool(partial))
        if name not in linted:
            linted.add(name)
            notes.extend(lint_notes(processor, label=name))
        fmax = synthesize_config(name, partial_load=bool(partial)).fmax_mhz
        row = [row_label(name, partial), round(fmax)]
        for which in SET_OPS:
            if model is not None:
                values, cycles, _source = model.set_operation(
                    processor, which, set_a, set_b)
            elif partial is None:
                values, run_result = run_scalar_set_operation(
                    processor, which, set_a, set_b)
                cycles = run_result.cycles
            else:
                values, run_result = run_set_operation(
                    processor, which, set_a, set_b)
                cycles = run_result.cycles
            if check_results and list(values) != truth[which]:
                raise AssertionError("%s produced a wrong %s result"
                                     % (name, which))
            elements = len(set_a) + len(set_b)
            row.append(elements * fmax / cycles if cycles else 0.0)
        if model is not None:
            values, cycles, _source = model.merge_sort(processor,
                                                       sort_values)
        elif partial is None:
            values, run_result = run_scalar_merge_sort(processor,
                                                       sort_values)
            cycles = run_result.cycles
        else:
            values, run_result = run_merge_sort(processor, sort_values)
            cycles = run_result.cycles
        if check_results and list(values) != truth["sort"]:
            raise AssertionError("%s produced a wrong sort result" % name)
        row.append(len(sort_values) * fmax / cycles if cycles else 0.0)
        result_rows.append(row)
    if model is not None:
        notes.append("cycle counts via the calibrated cost model "
                     "(bit-exact vs the ISS; %d fallbacks)"
                     % model.stats()["fallbacks"])
    return ExperimentResult(
        "Table 2",
        "Maximum throughput [million elements per second]",
        ["configuration", "f[MHz]", "intersection", "union",
         "difference", "merge_sort"],
        result_rows,
        notes=notes)
