"""Differential tests for the calibrated cost model.

The contract under test: for every builtin set/sort kernel on every
catalog configuration, the cost model returns the exact result list
and the exact ISS cycle count — not an approximation.  Every trial
here runs with ``verify=True``, which shadows each prediction with a
real ISS run and counts any divergence as a mismatch.
"""

import random

import numpy as np
import pytest

from repro.core.costmodel import (CostModel, calibration_cache_size,
                                  clear_calibration_cache,
                                  config_signature, default_cost_model,
                                  eis_set_features, eis_sort_features,
                                  set_result, solve_exact)
from repro.cpu import CacheConfig, CoreConfig, Processor
from repro.db import QueryExecutor, QueryStats
from repro.workloads.sets import generate_set_pair
from repro.workloads.sorting import random_values

from .eis_sort_walk import walk_eis_sort_features

SET_OPS = ("intersection", "union", "difference")


def _trial_pairs(rng, trials):
    """Deterministic operand pairs incl. adversarial edge shapes."""
    pairs = [
        ([], []),
        ([], [3, 7, 9]),
        ([4, 8], []),
        ([1, 2, 3, 4], [1, 2, 3, 4]),
        ([1, 2, 3, 4], [10, 20, 30, 40]),
        ([1], [1]),
        (list(range(0, 40, 2)), list(range(1, 41, 2))),
    ]
    for _ in range(trials):
        a, b = generate_set_pair(rng.randrange(1, 260),
                                 selectivity=rng.random(),
                                 seed=rng.randrange(10 ** 6))
        pairs.append((a[:rng.randrange(0, len(a) + 1)], b))
    return pairs


class TestPrimitives:
    def test_solve_exact_solves_consistent_system(self):
        rows = [[1, 0], [0, 1], [1, 1]]
        coefficients = solve_exact(rows, [5, 7, 12])
        assert [int(c) for c in coefficients] == [5, 7]

    def test_solve_exact_rejects_inconsistent_system(self):
        assert solve_exact([[1, 0], [0, 1], [1, 1]], [5, 7, 13]) is None

    def test_set_result_matches_set_algebra(self):
        rng = random.Random(3)
        pairs = [([], []), ([], [2, 5]), ([1, 9], []), ([7], [7]),
                 ([1, 2, 3], [4, 5, 6]), ([4, 5, 6], [1, 2, 3])]
        for _ in range(10):
            pairs.append(generate_set_pair(rng.randrange(1, 200),
                                           selectivity=rng.random(),
                                           seed=rng.randrange(10 ** 6)))
        for a, b in pairs:
            expected = {
                "intersection": sorted(set(a) & set(b)),
                "union": sorted(set(a) | set(b)),
                "difference": sorted(set(a) - set(b)),
            }
            arrays = (np.asarray(a, dtype=np.int64),
                      np.asarray(b, dtype=np.int64))
            for which in SET_OPS:
                for operands in ((a, b), arrays):
                    got = set_result(which, *operands)
                    assert got.dtype == np.int64
                    assert got.tolist() == expected[which]

    def test_set_result_never_aliases_an_operand(self):
        """Operands may be read-only scan-cache entries; results are
        always fresh arrays."""
        a = np.asarray([1, 3, 5], dtype=np.int64)
        a.flags.writeable = False
        for b in (np.asarray([], dtype=np.int64),
                  np.asarray([3], dtype=np.int64)):
            for which in SET_OPS:
                for operands in ((a, b), (b, a)):
                    got = set_result(which, *operands)
                    assert not any(np.shares_memory(got, operand)
                                   for operand in operands)

    def test_eis_walk_output_count_matches_result(self):
        rng = random.Random(4)
        for partial in (True, False):
            for which in SET_OPS:
                for a, b in _trial_pairs(rng, 6):
                    _features, total = eis_set_features(
                        which, a, b, partial)
                    assert total == len(set_result(which, a, b))

    @pytest.mark.parametrize("unrolls", ((16, 16), (1, 1), (4, 8), (3, 5)))
    def test_eis_sort_closed_form_matches_walk(self, unrolls):
        for length in range(5000):
            assert eis_sort_features(length, *unrolls) \
                == walk_eis_sort_features(length, *unrolls), length

    def test_config_signature_covers_catalog(self, eis_2lsu_partial,
                                             eis_1lsu_partial, mini_108):
        signatures = {config_signature(p) for p in (
            eis_2lsu_partial, eis_1lsu_partial, mini_108)}
        assert None not in signatures
        assert len(signatures) == 3

    def test_config_signature_refuses_caches(self):
        cached = Processor(CoreConfig(
            "cached", dmem0_kb=16, sim_headroom_kb=0,
            dcache=CacheConfig("d", 1024, 2, 16, miss_penalty=6)))
        assert config_signature(cached) is None


class TestDifferentialExactness:
    """Every kernel, every catalog config: predicted == simulated."""

    @pytest.mark.parametrize("which", SET_OPS)
    def test_eis_set_kernels(self, all_eis_processors, which):
        model = CostModel(verify=True)
        rng = random.Random(hash(which) & 0xFFFF)
        for (name, partial), processor in all_eis_processors.items():
            for a, b in _trial_pairs(rng, 5):
                values, cycles, source = model.set_operation(
                    processor, which, a, b)
                assert values.tolist() == set_result(which, a, b).tolist()
                assert source == "costmodel", (name, partial)
        stats = model.stats()
        assert stats["mismatches"] == 0
        assert stats["fallbacks"] == 0
        assert stats["calibration_failures"] == 0

    @pytest.mark.parametrize("which", SET_OPS)
    def test_scalar_set_kernels(self, mini_108, dba_1lsu, which):
        model = CostModel(verify=True)
        rng = random.Random(hash(which) & 0xFFF)
        for processor in (mini_108, dba_1lsu):
            for a, b in _trial_pairs(rng, 4):
                values, cycles, source = model.set_operation(
                    processor, which, a, b)
                assert values.tolist() == set_result(which, a, b).tolist()
                assert source == "costmodel"
        stats = model.stats()
        assert stats["mismatches"] == 0
        assert stats["fallbacks"] == 0

    def test_eis_merge_sort(self, all_eis_processors):
        model = CostModel(verify=True)
        rng = random.Random(17)
        lengths = [0, 1, 3, 4, 5, 16, 65, 130]
        lengths += [rng.randrange(1, 400) for _ in range(4)]
        for (_name, _partial), processor in all_eis_processors.items():
            for length in lengths:
                values = random_values(length,
                                       seed=rng.randrange(10 ** 6))
                output, cycles, source = model.merge_sort(processor,
                                                          values)
                assert output.tolist() == sorted(values)
                assert source == "costmodel"
        assert model.stats()["mismatches"] == 0
        assert model.stats()["fallbacks"] == 0

    def test_scalar_merge_sort(self, mini_108, dba_1lsu):
        model = CostModel(verify=True)
        rng = random.Random(19)
        for processor in (mini_108, dba_1lsu):
            for length in (1, 2, 7, 33, 100):
                values = random_values(length,
                                       seed=rng.randrange(10 ** 6))
                output, cycles, source = model.merge_sort(processor,
                                                          values)
                assert output.tolist() == sorted(values)
                assert source == "costmodel"
        assert model.stats()["mismatches"] == 0

    def test_scalar_empty_sort_costs_zero_like_iss(self, mini_108):
        model = CostModel()
        output, cycles, source = model.merge_sort(mini_108, [])
        assert output.tolist() == [] and cycles == 0


class TestFallbacks:
    def test_cached_config_falls_back_to_iss(self):
        cached = Processor(CoreConfig(
            "cached", dmem0_kb=16, sim_headroom_kb=0,
            dcache=CacheConfig("d", 1024, 2, 16, miss_penalty=6)))
        model = CostModel()
        values, cycles, source = model.set_operation(
            cached, "intersection", [1, 2, 3], [2, 3, 4])
        assert source == "iss"
        assert values.tolist() == [2, 3]
        assert cycles > 0
        assert model.stats()["fallbacks"] == 1
        assert model.stats()["hits"] == 0

    def test_disabled_model_uses_iss(self, eis_2lsu_partial):
        model = CostModel(enabled=False)
        values, cycles, source = model.set_operation(
            eis_2lsu_partial, "union", [1, 3], [2, 3])
        assert source == "iss"
        assert values.tolist() == [1, 2, 3]

    def test_armed_fault_hook_forces_iss(self, eis_2lsu_partial,
                                         monkeypatch):
        model = CostModel()
        monkeypatch.setattr(eis_2lsu_partial, "_fault_hook",
                            lambda *a: None, raising=False)
        _values, _cycles, source = model.set_operation(
            eis_2lsu_partial, "intersection", [1, 2], [2, 3])
        assert source == "iss"

    def test_calibrations_are_shared_across_instances(
            self, eis_2lsu_partial):
        clear_calibration_cache()
        try:
            first = CostModel()
            first.set_operation(eis_2lsu_partial, "intersection",
                                [1, 2, 3], [2, 3, 4])
            size = calibration_cache_size()
            assert size >= 1
            second = CostModel()
            second.set_operation(eis_2lsu_partial, "intersection",
                                 [5, 6], [6, 7])
            assert calibration_cache_size() == size
            assert second.stats()["calibrations"] == 0
            assert second.stats()["hits"] == 1
        finally:
            clear_calibration_cache()

    def test_default_cost_model_is_shared(self):
        assert default_cost_model() is default_cost_model()


class TestExecutorIntegration:
    """ISS and cost-model execution paths agree end to end."""

    def test_executor_paths_agree(self, eis_2lsu_partial):
        from repro.db import And, ColumnarTable, Eq, Range
        rng = random.Random(23)
        n = 500
        table = ColumnarTable("t", {
            "k": [rng.randrange(5) for _ in range(n)],
            "v": [rng.randrange(900) for _ in range(n)],
        })
        table.create_index("k")
        table.create_index("v")
        predicate = And(Eq("k", 2), Range("v", 100, 700))
        iss = QueryExecutor(eis_2lsu_partial)
        fast = QueryExecutor(eis_2lsu_partial,
                             cost_model=CostModel())
        rids_iss, stats_iss = iss.where(table, predicate)
        rids_fast, stats_fast = fast.where(table, predicate)
        assert rids_fast.tolist() == rids_iss.tolist()
        assert stats_fast.cycles == stats_iss.cycles
        assert stats_iss.cycles_by_source["costmodel"] == 0
        assert stats_fast.cycles_by_source["iss"] == 0
        assert stats_fast.cycles_by_source["costmodel"] == \
            stats_fast.cycles

        ordered_iss, sort_iss = iss.order_by(table, rids_iss, "v")
        ordered_fast, sort_fast = fast.order_by(table, rids_fast, "v")
        assert ordered_fast.tolist() == ordered_iss.tolist()
        assert sort_fast.cycles == sort_iss.cycles

    def test_short_circuit_is_identical_on_both_paths(
            self, eis_2lsu_partial):
        for cost_model in (None, CostModel()):
            executor = QueryExecutor(eis_2lsu_partial,
                                     cost_model=cost_model)
            stats = QueryStats()
            for which, left, right, expected in (
                    ("intersection", [], [1, 2], []),
                    ("union", [], [1, 2], [1, 2]),
                    ("difference", [1, 2], [], [1, 2])):
                got = executor.set_operation(which, left, right, stats)
                assert got.dtype == np.int64
                # Plain ints out, not numpy scalars.
                assert [type(rid) for rid in got.tolist()] \
                    == [int] * len(expected)
                assert got.tolist() == expected
            assert stats.short_circuits == 3
            assert stats.cycles == 0
            assert stats.set_operations == 0


class TestServingUnderVerify:
    """A served query batch: every prediction shadowed by the ISS."""

    @pytest.mark.parametrize("partial", (True, False))
    def test_demo_batch_has_no_mismatches(self, eis_2lsu_partial,
                                          eis_2lsu_nopartial, partial):
        from repro.db.bench import build_demo_table, demo_queries
        from repro.db.engine import QueryEngine
        processor = eis_2lsu_partial if partial else eis_2lsu_nopartial
        model = CostModel(verify=True)
        engine = QueryEngine(processor=processor, cost_model=model)
        table = build_demo_table(rows=2000, seed=11)
        engine.execute_batch(demo_queries(table, count=48, seed=5))
        stats = model.stats()
        assert stats["hits"] > 0
        assert stats["mismatches"] == 0
        assert stats["fallbacks"] == 0
