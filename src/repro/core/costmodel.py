"""Calibrated analytic cost model for the builtin kernels.

Serving query traffic through the cycle-accurate ISS means every
predicate node pays per-instruction simulation cost, so DB throughput
is bounded by simulator speed rather than by the modeled hardware.
This module removes the simulator from the serving path while keeping
the *cycle numbers* exact:

* results are computed with plain set algebra / sorting (NumPy above
  a small size cutover, C-level ``set``/``sorted`` below it), and
* cycle counts are predicted from a per-(processor-config, kernel,
  unroll) linear model over *event counts* — how often each control
  path of the kernel executes for a given input.

Why this can be exact: on every catalog configuration the per-access
memory cost is a constant (local data memories have zero wait states,
the 108Mini system memory a fixed three, and no configuration has a
data cache), and every interlock/branch penalty is determined by the
instruction path alone.  Total cycles are therefore *exactly linear*
in the per-path event counts, which we can compute directly from the
operand values:

* scalar set kernels: merged-order event classification (``adva`` /
  ``advb`` / ``both`` / exit variant / drain lengths),
* scalar merge sort: per-pair take/drain interleave counts,
* EIS set kernels: a lean per-block walk of the set datapath that
  counts fused-bundle iterations (not per-instruction simulation),
* EIS merge sort: a structural walk over the pass/pair recurrence
  (its iteration counts are data-independent).

The coefficients are *calibrated*, not hand-derived: a one-time
micro-probe run executes each kernel on the ISS over a corpus of
inputs, an exact rational solver fits the event-count model, and the
fit is differentially validated against held-out probes.  A model that
does not reproduce the ISS bit-for-bit is discarded; the affected
(config, kernel) pair then permanently falls back to the ISS, bumping
the ``costmodel.fallback`` counter — the same degradation pattern as
the superblock fast path (``cpu.run.fallback``).

``REPRO_NO_COSTMODEL=1`` disables the model globally;
``REPRO_COSTMODEL_VERIFY=1`` shadows every prediction with a real ISS
run and falls back on any mismatch (the differential test suite's
belt-and-braces mode).
"""

import bisect
import math
import os
from fractions import Fraction

import numpy as _np

from .common import LANES
from .kernels import DEFAULT_UNROLL, run_merge_sort, run_set_operation
from .scalar_kernels import (run_scalar_merge_sort,
                             run_scalar_set_operation)

#: Module-level calibration cache, shared across CostModel instances
#: the way compiled kernels are shared across processors:
#: (config signature, kernel kind) -> coefficient list or None (failed).
_CALIBRATIONS = {}


def _operand_list(values):
    """Normalize a kernel operand to a plain list of Python ints.

    The columnar storage layer produces ndarray RID/value vectors;
    everything below the public CostModel API (feature extraction,
    kernel walks, calibration probes) assumes list semantics.
    """
    if isinstance(values, _np.ndarray):
        return values.tolist()
    return values


def clear_calibration_cache():
    _CALIBRATIONS.clear()


def calibration_cache_size():
    return len(_CALIBRATIONS)


# ---------------------------------------------------------------------------
# configuration signature
# ---------------------------------------------------------------------------

def config_signature(processor):
    """Hashable timing identity of a processor, or None if unmodelable.

    Captures every parameter the cycle count of a kernel can depend
    on.  Configurations with caches are refused outright: cache hits
    make the per-access cost history-dependent, which breaks the
    linear event-count model (such configs simply keep using the ISS).
    """
    config = processor.config
    if config.dcache is not None or config.icache is not None:
        return None
    pipe = config.pipeline
    return (
        config.name, config.num_lsus, config.lsu_port_bits,
        config.dmem0_kb, config.dmem1_kb, config.sysmem_wait_states,
        pipe.branch_taken_penalty, pipe.branch_nottaken_penalty,
        pipe.jump_penalty, pipe.call_penalty, pipe.indirect_penalty,
        pipe.load_use_delay, pipe.mul_use_delay, pipe.div_cycles,
        pipe.ifetch_stall_per_redirect,
    )


def _eis_extension(processor):
    for extension in processor.extensions:
        if getattr(extension, "name", "") == "db_eis":
            return extension
    return None


# ---------------------------------------------------------------------------
# exact rational solver
# ---------------------------------------------------------------------------

def solve_exact(rows, targets):
    """Any exact solution of ``rows @ c == targets`` or None.

    Gauss-Jordan over ``Fraction`` so there is no floating-point
    round-off: either the probe system is consistent (the event-count
    model holds) and we return one exact solution (free variables
    pinned to zero), or it is not and calibration fails.
    """
    if not rows:
        return None
    columns = len(rows[0])
    aug = [[Fraction(value) for value in row] + [Fraction(target)]
           for row, target in zip(rows, targets)]
    pivot_columns = []
    rank = 0
    for column in range(columns):
        pivot = next((i for i in range(rank, len(aug))
                      if aug[i][column] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inverse = Fraction(1) / aug[rank][column]
        aug[rank] = [value * inverse for value in aug[rank]]
        row_r = aug[rank]
        for i in range(len(aug)):
            if i != rank and aug[i][column]:
                factor = aug[i][column]
                aug[i] = [value - factor * pivot_value
                          for value, pivot_value in zip(aug[i], row_r)]
        pivot_columns.append(column)
        rank += 1
        if rank == len(aug):
            break
    for i in range(rank, len(aug)):
        if aug[i][columns] != 0:
            return None  # inconsistent: model does not fit the probes
    coefficients = [Fraction(0)] * columns
    for row_index, column in enumerate(pivot_columns):
        coefficients[column] = aug[row_index][columns]
    return coefficients


def _scale_coefficients(coefficients):
    """``(scaled integer coefficients, common denominator)``.

    Predictions happen per kernel launch, so the hot path uses plain
    integer arithmetic; the common denominator keeps it exact.
    """
    scale = 1
    for coefficient in coefficients:
        denominator = coefficient.denominator
        scale = scale * denominator // math.gcd(scale, denominator)
    return [int(c * scale) for c in coefficients], scale


def _predict(calibration, features):
    coefficients, scale = calibration
    total = 0
    for coefficient, feature in zip(coefficients, features):
        if feature:
            total += coefficient * feature
    if total < 0 or total % scale:
        return None  # feature vector outside the calibrated span
    return total // scale


# ---------------------------------------------------------------------------
# result computation (vectorized set algebra)
# ---------------------------------------------------------------------------

#: Below this operand size the numpy call overhead beats C-level sets.
_NUMPY_CUTOVER = 64


def set_result(which, set_a, set_b):
    """The kernel's result list, computed without the processor."""
    if len(set_a) + len(set_b) >= _NUMPY_CUTOVER:
        a = _np.asarray(set_a, dtype=_np.int64)
        b = _np.asarray(set_b, dtype=_np.int64)
        if which == "intersection":
            out = _np.intersect1d(a, b, assume_unique=True)
        elif which == "union":
            out = _np.union1d(a, b)
        else:
            out = _np.setdiff1d(a, b, assume_unique=True)
        return out.tolist()
    sa, sb = set(set_a), set(set_b)
    if which == "intersection":
        return sorted(sa & sb)
    if which == "union":
        return sorted(sa | sb)
    return sorted(sa - sb)


def sort_result(values):
    if len(values) >= _NUMPY_CUTOVER:
        return _np.sort(_np.asarray(values, dtype=_np.int64)).tolist()
    return sorted(values)


# ---------------------------------------------------------------------------
# feature extraction: scalar set kernels
# ---------------------------------------------------------------------------

# Feature layout (per operation; drain features appended as noted):
#   [both_nonempty, a_empty, b_empty_only,
#    n_adva, n_advb, n_both,
#    term_adva, term_advb, term_both_a, term_both_b,
#    n_drain_a (union/difference), n_drain_b (union)]

def scalar_set_features(which, set_a, set_b):
    drains = {"intersection": 0, "difference": 1, "union": 2}[which]
    features = [0] * (10 + drains)
    if not set_a:
        features[1] = 1
        if drains == 2:
            features[11] = len(set_b)
        return features
    if not set_b:
        features[2] = 1
        if drains >= 1:
            features[10] = len(set_a)
        return features
    features[0] = 1
    last_a, last_b = set_a[-1], set_b[-1]
    ceiling = last_a if last_a < last_b else last_b
    in_a = ceiling == last_a or _contains(set_a, ceiling)
    in_b = ceiling == last_b or _contains(set_b, ceiling)
    count_a = bisect.bisect_right(set_a, ceiling)
    count_b = bisect.bisect_right(set_b, ceiling)
    n_both = _common_below(set_a, count_a, set_b, count_b)
    n_adva = count_a - n_both
    n_advb = count_b - n_both
    if in_a and in_b:
        n_both -= 1
        features[8 if ceiling == last_a else 9] = 1
    elif in_a:  # ceiling == last_a: A exhausts via adva
        n_adva -= 1
        features[6] = 1
    else:
        n_advb -= 1
        features[7] = 1
    features[3] = n_adva
    features[4] = n_advb
    features[5] = n_both
    if drains >= 1:
        features[10] = len(set_a) - count_a
    if drains == 2:
        features[11] = len(set_b) - count_b
    return features


def _contains(sorted_values, value):
    index = bisect.bisect_left(sorted_values, value)
    return index < len(sorted_values) and sorted_values[index] == value


def _common_below(set_a, count_a, set_b, count_b):
    """Distinct values present in both strictly-sorted prefixes."""
    if count_a + count_b >= _NUMPY_CUTOVER:
        return int(_np.intersect1d(
            _np.asarray(set_a[:count_a], dtype=_np.int64),
            _np.asarray(set_b[:count_b], dtype=_np.int64),
            assume_unique=True).size)
    return len(set(set_a[:count_a]) & set(set_b[:count_b]))


# ---------------------------------------------------------------------------
# feature extraction: scalar merge sort
# ---------------------------------------------------------------------------

# Feature layout:
#   [1, n_pass, n_pair, n_take_a, n_take_b,
#    n_pair_drain_a, n_pair_drain_b, n_drain_a, n_drain_b]

def scalar_sort_features(values):
    n = len(values)
    features = [1, 0, 0, 0, 0, 0, 0, 0, 0]
    if n <= 1:
        return features
    current = list(values)
    run = 1
    while run < n:
        features[1] += 1
        merged = []
        position = 0
        while position < n:
            end_a = min(position + run, n)
            end_b = min(position + 2 * run, n)
            run_a = current[position:end_a]
            run_b = current[end_a:end_b]
            features[2] += 1
            if not run_b:
                features[5] += 1
                features[7] += len(run_a)
            else:
                # Elements of B emitted before A's last element (ties
                # emit A first: the kernel's bgtu takes B only on >).
                before_a = bisect.bisect_left(run_b, run_a[-1])
                before_b = bisect.bisect_right(run_a, run_b[-1])
                if len(run_a) + before_a < len(run_b) + before_b:
                    # A exhausts first; the rest of B drains.
                    features[3] += len(run_a)
                    features[4] += before_a
                    features[6] += 1
                    features[8] += len(run_b) - before_a
                else:
                    features[3] += before_b
                    features[4] += len(run_b)
                    features[5] += 1
                    features[7] += len(run_a) - before_b
            merged.extend(sorted(run_a + run_b))
            position = end_b
        current = merged
        run *= 2
    return features


# ---------------------------------------------------------------------------
# feature extraction: EIS set kernels (lean datapath walk)
# ---------------------------------------------------------------------------

class _WalkError(Exception):
    """The lean walk hit a state it cannot model; fall back to ISS."""


_SET_WALK_OPS = {"intersection": 0, "union": 1, "difference": 2}


def eis_set_features(which, set_a, set_b, partial_load,
                     unroll=DEFAULT_UNROLL):
    """[1, k, wraps, block_loads, block_stores, flush_lanes, result].

    ``k`` is the number of ``store_sop`` bundles the kernel executes
    (the single data-dependent quantity of the Figure 11 loop), and
    ``wraps`` the resulting back-jump count of the ``unroll``-deep
    loop body.  The trailing features cover the 128-bit loads/stores
    and the sub-block flush tail so configurations with non-zero
    memory wait states stay in-model.

    The walk mirrors :class:`repro.core.datapath.SetDatapath` op for
    op (ST, SOP, ST_S, LDP, LD in the fused-bundle order — identical
    on 1- and 2-LSU cores), but exploits that the comparison window
    and the Load stage always hold *contiguous slices* of the sorted,
    duplicate-free operands: the entire datapath state reduces to a
    handful of integers per side (window start/valid, staged load
    count) plus FIFO/store occupancy, and each SOP step to a few
    comparisons against the threshold ``min(max A lane, max B lane)``
    (:mod:`repro.core.sop` semantics) — no window vectors, no sentinel
    padding.
    """
    op = _SET_WALK_OPS[which]
    len_a = len(set_a)
    len_b = len(set_b)
    aws = bws = 0  # window start: element index into the operand
    av = bv = 0  # valid (unconsumed) window lanes
    la = lb = 0  # elements staged in the Load state
    result_cnt = fifo_cnt = store_cnt = 0
    stored = 0
    block_loads = block_stores = 0
    # kernel prologue: sop_init, ld_a, ld_b, ldp_a, ldp_b
    if len_a:
        la = LANES if len_a >= LANES else len_a
        block_loads += 1
        av, la = la, 0
    if len_b:
        lb = LANES if len_b >= LANES else len_b
        block_loads += 1
        bv, lb = lb, 0
    iterations = 0
    limit = 4 * (len_a + len_b) + 64
    while True:
        # ST: retire a completed 128-bit store block
        if store_cnt == LANES:
            stored += LANES
            store_cnt = 0
            block_stores += 1
        # SOP: stall on FIFO pressure or an empty-but-pending window
        if result_cnt:
            raise _WalkError("SOP before ST_S drained results")
        if fifo_cnt <= 3 * LANES \
                and not (av == 0 and aws < len_a) \
                and not (bv == 0 and bws < len_b) \
                and (av or bv):
            if av and bv:
                max_a = set_a[aws + av - 1]
                max_b = set_b[bws + bv - 1]
                if max_a <= max_b:
                    threshold = max_a
                    ca = av
                    cb = 0
                    while cb < bv and set_b[bws + cb] <= threshold:
                        cb += 1
                else:
                    threshold = max_b
                    cb = bv
                    ca = 0
                    while ca < av and set_a[aws + ca] <= threshold:
                        ca += 1
            elif av:  # B exhausted: drain A
                ca, cb = av, 0
            else:  # A exhausted: drain B
                ca, cb = 0, bv
            overlap = 0
            if ca and cb:
                i, j = aws, bws
                end_a, end_b = aws + ca, bws + cb
                while i < end_a and j < end_b:
                    x = set_a[i]
                    y = set_b[j]
                    if x < y:
                        i += 1
                    elif y < x:
                        j += 1
                    else:
                        overlap += 1
                        i += 1
                        j += 1
            if op == 0:
                result_cnt = overlap
            elif op == 2:
                result_cnt = ca - overlap
            else:
                result_cnt = ca + cb - overlap
                if result_cnt > LANES:
                    # Result states are 4 wide: cut consumption back
                    # to the fourth distinct merged value (value-
                    # boundary cut keeps the both-copies invariant).
                    i, j = aws, bws
                    end_a, end_b = aws + ca, bws + cb
                    cut = 0
                    for _ in range(LANES):
                        x = set_a[i] if i < end_a else None
                        y = set_b[j] if j < end_b else None
                        if y is None or (x is not None and x < y):
                            cut = x
                            i += 1
                        elif x is None or y < x:
                            cut = y
                            j += 1
                        else:
                            cut = x
                            i += 1
                            j += 1
                    ca = 0
                    while ca < av and set_a[aws + ca] <= cut:
                        ca += 1
                    cb = 0
                    while cb < bv and set_b[bws + cb] <= cut:
                        cb += 1
                    result_cnt = LANES
            aws += ca
            av -= ca
            bws += cb
            bv -= cb
        iterations += 1
        if not (av or bv or result_cnt or store_cnt
                or fifo_cnt >= LANES
                or aws + av < len_a or bws + bv < len_b):
            break
        if iterations > limit:
            raise _WalkError("set walk failed to converge")
        # ST_S: results -> FIFO, FIFO -> store stage when it is free
        if result_cnt:
            fifo_cnt += result_cnt
            result_cnt = 0
        if store_cnt == 0 and fifo_cnt >= LANES:
            fifo_cnt -= LANES
            store_cnt = LANES
        # LDP: refill windows from the Load state (all consumed lanes
        # with partial loading, whole drained windows without)
        want = LANES - av if partial_load \
            else (LANES if av == 0 else 0)
        if want and la:
            take = want if want < la else la
            av += take
            la -= take
        want = LANES - bv if partial_load \
            else (LANES if bv == 0 else 0)
        if want and lb:
            take = want if want < lb else lb
            bv += take
            lb -= take
        # LD: stage the next 128-bit block once the Load state drains
        if not la:
            staged = aws + av
            if staged < len_a:
                remaining = len_a - staged
                la = LANES if remaining >= LANES else remaining
                block_loads += 1
        if not lb:
            staged = bws + bv
            if staged < len_b:
                remaining = len_b - staged
                lb = LANES if remaining >= LANES else remaining
                block_loads += 1
    flush_lanes = store_cnt + fifo_cnt
    total = stored + flush_lanes
    return [1, iterations, (iterations - 1) // unroll,
            block_loads, block_stores, flush_lanes], total


# ---------------------------------------------------------------------------
# feature extraction: EIS merge sort (structural walk)
# ---------------------------------------------------------------------------

def eis_sort_features(length, presort_unroll=16, merge_unroll=16):
    """[1, presort_iters, presort_wraps, passes, pairs,
    sum_targets, merge_wraps].

    The EIS merge pipeline refills the consumed stage in the same
    MLDSEL and fires the merge network every iteration, so each pair
    of runs takes exactly ``target + 2`` fused-bundle iterations where
    ``target`` is the pair's 128-bit block count — the cycle count is
    a pure function of the (padded) input length.
    """
    padded = length + (-length) % LANES
    blocks = padded // LANES
    presort = max(blocks, 1)
    features = [1, presort, (presort - 1) // presort_unroll, 0, 0, 0, 0]
    run = LANES
    while run < padded:
        features[3] += 1
        position = 0
        while position < padded:
            end = min(position + 2 * run, padded)
            target = (end - position) // LANES
            iterations = target + 2
            features[4] += 1
            features[5] += target
            features[6] += (iterations - 1) // merge_unroll
            position = end
        run *= 2
    return features


# ---------------------------------------------------------------------------
# probe corpora
# ---------------------------------------------------------------------------

def _sorted_sample(rng, size, universe):
    if size <= 0:
        return []
    return sorted(rng.sample(range(universe), size))


def _set_probe_inputs():
    """Deterministic calibration + validation inputs for set kernels."""
    import random
    rng = random.Random(0x5E7CA1)
    probes = [
        ([], []), ([], [5]), ([7], []), ([3], [3]), ([3], [9]),
        ([9], [3]), ([1, 2, 3, 4], [1, 2, 3, 4]),
        (list(range(0, 40, 2)), list(range(1, 41, 2))),
        (list(range(10)), list(range(5, 15))),
        (list(range(30)), [29]), ([0], list(range(30))),
        (list(range(0, 64, 3)), list(range(0, 64, 4))),
        (list(range(8)), list(range(8, 16))),
        (list(range(8, 16)), list(range(8))),
        (list(range(0, 200, 2)), list(range(1, 200, 2))),
    ]
    for _ in range(12):
        size_a = rng.randrange(0, 60)
        size_b = rng.randrange(0, 60)
        probes.append((_sorted_sample(rng, size_a, 160),
                       _sorted_sample(rng, size_b, 160)))
    validation = [
        (list(range(1, 26, 2)), list(range(0, 26, 3))),
        ([2], []), ([], [2, 4, 6]), ([5, 6, 7], [5, 6, 7, 8]),
    ]
    for _ in range(8):
        size_a = rng.randrange(0, 80)
        size_b = rng.randrange(0, 80)
        validation.append((_sorted_sample(rng, size_a, 220),
                           _sorted_sample(rng, size_b, 220)))
    return probes, validation


def _sort_probe_inputs():
    import random
    rng = random.Random(0xB17_50F7)
    sizes = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 17, 25, 31, 32, 40,
             52, 64, 68, 96, 128, 140]
    probes = [([rng.randrange(0, 4000) for _ in range(size)],)
              for size in sizes]
    probes.append(([7],))
    probes.append(([9, 9, 9, 9, 9, 1],))
    probes.append((list(range(48)),))
    probes.append((list(range(48, 0, -1)),))
    validation = [([rng.randrange(0, 4000) for _ in range(size)],)
                  for size in (9, 11, 19, 27, 37, 45, 70, 100, 130)]
    return probes, validation


_SET_PROBES = None
_SORT_PROBES = None


def _set_probes():
    global _SET_PROBES
    if _SET_PROBES is None:
        _SET_PROBES = _set_probe_inputs()
    return _SET_PROBES


def _sort_probes():
    global _SORT_PROBES
    if _SORT_PROBES is None:
        _SORT_PROBES = _sort_probe_inputs()
    return _SORT_PROBES


# ---------------------------------------------------------------------------
# the cost model
# ---------------------------------------------------------------------------

class CostModel:
    """Exact-cycle kernel execution without instruction simulation.

    One instance can serve any number of processors; calibrations are
    cached per configuration signature (module-level, like the kernel
    compile cache).  Every public entry point returns
    ``(values, cycles, source)`` where *source* is ``"costmodel"`` or
    ``"iss"`` (the fallback), and the values/cycles are bit-identical
    between the two sources by construction.
    """

    def __init__(self, enabled=None, verify=None):
        if enabled is None:
            enabled = os.environ.get("REPRO_NO_COSTMODEL", "") != "1"
        if verify is None:
            verify = os.environ.get("REPRO_COSTMODEL_VERIFY", "") == "1"
        self.enabled = enabled
        self.verify = verify
        self.counters = {"hits": 0, "fallbacks": 0, "calibrations": 0,
                         "calibration_failures": 0, "mismatches": 0}

    # -- public API ----------------------------------------------------------

    def set_operation(self, processor, which, set_a, set_b,
                      unroll=DEFAULT_UNROLL):
        """Model one set kernel; ``(values, cycles, source)``.

        Operands may be plain lists or NumPy arrays (the columnar
        storage layer hands over ndarray scan results directly); the
        kernel walk, features and calibration always see lists.
        """
        set_a = _operand_list(set_a)
        set_b = _operand_list(set_b)
        extension = _eis_extension(processor)
        if extension is not None:
            partial = bool(extension.setdp.partial_load)
            kind = ("eis_set", which, partial, unroll)

            def runner(proc, a, b):
                return run_set_operation(proc, which, a, b,
                                         unroll=unroll,
                                         validate_input=False)

            def features(a, b):
                computed, total = eis_set_features(which, a, b, partial,
                                                   unroll)
                if total != len(set_result(which, a, b)):
                    raise _WalkError("walk/result count mismatch")
                return computed
        else:
            kind = ("scalar_set", which)

            def runner(proc, a, b):
                return run_scalar_set_operation(proc, which, a, b,
                                                validate_input=False)

            def features(a, b):
                return scalar_set_features(which, a, b)

        def result(a, b):
            return set_result(which, a, b)

        return self._execute(processor, kind, runner, features, result,
                             _set_probes(), (set_a, set_b))

    def merge_sort(self, processor, values):
        """Model one sort kernel; ``(values, cycles, source)``.

        *values* may be a list or a NumPy array (see
        :meth:`set_operation`).
        """
        values = _operand_list(values)
        extension = _eis_extension(processor)
        if extension is not None:
            kind = ("eis_sort",)

            def runner(proc, data):
                return run_merge_sort(proc, data, validate_input=False)

            def features(data):
                return eis_sort_features(len(data))
        else:
            if not values:
                # mirror run_scalar_merge_sort's degenerate empty run
                return [], 0, "costmodel"
            kind = ("scalar_sort",)

            def runner(proc, data):
                return run_scalar_merge_sort(proc, data,
                                             validate_input=False)

            def features(data):
                return scalar_sort_features(data)

        probes, validation = _sort_probes()
        if extension is None:
            probes = [p for p in probes if p[0]]
            validation = [p for p in validation if p[0]]
        return self._execute(processor, kind, runner, features,
                             sort_result, (probes, validation),
                             (values,))

    def stats(self):
        """Counter snapshot (``costmodel.*`` in engine telemetry)."""
        return dict(self.counters)

    # -- internals -----------------------------------------------------------

    def _execute(self, processor, kind, runner, feature_fn, result_fn,
                 probe_sets, args):
        coefficients = None
        if self.enabled and getattr(processor, "_fault_hook",
                                    None) is None:
            coefficients = self._calibration(processor, kind, runner,
                                             feature_fn, probe_sets)
        if coefficients is None:
            values, run = runner(processor, *args)
            self.counters["fallbacks"] += 1
            return values, run.cycles, "iss"
        try:
            features = feature_fn(*args)
        except _WalkError:
            features = None
        cycles = _predict(coefficients, features) \
            if features is not None else None
        if cycles is None:
            values, run = runner(processor, *args)
            self.counters["fallbacks"] += 1
            return values, run.cycles, "iss"
        values = result_fn(*args)
        if self.verify:
            iss_values, iss_run = runner(processor, *args)
            if iss_values != values or iss_run.cycles != cycles:
                self.counters["mismatches"] += 1
                self.counters["fallbacks"] += 1
                return iss_values, iss_run.cycles, "iss"
        self.counters["hits"] += 1
        return values, cycles, "costmodel"

    def _calibration(self, processor, kind, runner, feature_fn,
                     probe_sets):
        signature = config_signature(processor)
        if signature is None:
            return None
        key = (signature, kind)
        if key in _CALIBRATIONS:
            return _CALIBRATIONS[key]
        coefficients = self._calibrate(processor, runner, feature_fn,
                                       probe_sets)
        _CALIBRATIONS[key] = coefficients
        if coefficients is None:
            self.counters["calibration_failures"] += 1
        else:
            self.counters["calibrations"] += 1
        return coefficients

    def _calibrate(self, processor, runner, feature_fn, probe_sets):
        """Fit and differentially validate one (config, kernel) model."""
        probes, validation = probe_sets
        rows = []
        cycles = []
        try:
            for args in probes:
                rows.append(feature_fn(*args))
                _values, run = runner(processor, *args)
                cycles.append(run.cycles)
            solution = solve_exact(rows, cycles)
            if solution is None:
                return None
            coefficients = _scale_coefficients(solution)
            for args in validation:
                predicted = _predict(coefficients, feature_fn(*args))
                _values, run = runner(processor, *args)
                if predicted != run.cycles:
                    return None
        except Exception:
            # any probe failure (walk divergence, simulation error,
            # unexpected input shape) means "cannot model": fall back
            return None
        return coefficients


_DEFAULT_MODEL = None


def default_cost_model():
    """Process-wide shared CostModel (calibrations amortize across
    executors, engines and CLI invocations)."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = CostModel()
    return _DEFAULT_MODEL
