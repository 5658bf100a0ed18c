"""Calibrated analytic cost model for the builtin kernels.

Serving query traffic through the cycle-accurate ISS means every
predicate node pays per-instruction simulation cost, so DB throughput
is bounded by simulator speed rather than by the modeled hardware.
This module removes the simulator from the serving path while keeping
the *cycle numbers* exact:

* results are computed once per operation with vectorized set algebra
  / sorting on int64 ndarrays, and
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
* EIS set kernels: a *window chase* over the Figure 11 ``store_sop``
  loop -- one Python step per SOP bundle with three integers of state
  per operand (elements consumed, window end, load frontier), closed
  forms for block loads/stores, the flush tail and the one-sided
  drain (see :func:`eis_set_features`); the per-iteration datapath
  walk it replaced is the oracle of its differential tests,
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


def operand_list(values):
    """A kernel operand as a plain sequence of Python ints.

    RID vectors travel as int64 ndarrays; the ISS kernel runners and
    the scalar-kernel feature walks take lists.
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

def set_result(which, set_a, set_b):
    """The kernel's result as a sorted int64 ndarray, computed without
    the processor.  Operands are sorted and duplicate-free (lists or
    ndarrays)."""
    a = _np.asarray(set_a, dtype=_np.int64)
    b = _np.asarray(set_b, dtype=_np.int64)
    if which == "union":
        merged = _np.concatenate((a, b))
        # Two sorted runs: the stable sort is a linear merge.
        merged.sort(kind="stable")
        keep = _np.empty(merged.size, dtype=bool)
        keep[:1] = True
        _np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        return merged[keep]
    if b.size:
        found = b[_np.minimum(_np.searchsorted(b, a), b.size - 1)] == a
    else:
        found = _np.zeros(a.size, dtype=bool)
    return a[found] if which == "intersection" else a[~found]


def sort_result(values):
    """*values* sorted, as an int64 ndarray."""
    return _np.sort(_np.asarray(values, dtype=_np.int64))


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


#: Below this operand size the numpy call overhead beats C-level sets.
_NUMPY_CUTOVER = 64


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
# feature extraction: EIS set kernels (window chase)
# ---------------------------------------------------------------------------

class _CountMismatch(Exception):
    """The chase's output count disagrees with the computed result;
    fall back to the ISS."""


def eis_set_features(which, set_a, set_b, partial_load,
                     unroll=DEFAULT_UNROLL):
    """``([1, k, wraps, block_loads, block_stores, flush_lanes], total)``.

    ``k`` is the number of ``store_sop`` bundles the kernel executes
    (the single data-dependent quantity of the Figure 11 loop), and
    ``wraps`` the resulting back-jump count of the ``unroll``-deep
    loop body.  The trailing features cover the 128-bit loads/stores
    and the sub-block flush tail so configurations with non-zero
    memory wait states stay in-model; ``total`` is the kernel's
    output count.

    ``k`` comes from a *window chase* over the sorted, duplicate-free
    operands (see the notes before :func:`_merged_ranks`): one
    Python step per SOP bundle, a few integers of state per side, and
    closed forms for everything the datapath does between bundles.
    """
    a = _np.asarray(set_a, dtype=_np.int64)
    b = _np.asarray(set_b, dtype=_np.int64)
    len_a = int(a.size)
    len_b = int(b.size)
    if len_a and len_b:
        steps, last_emitted, common = _chase_steps(
            which, a, b, partial_load)
    else:
        # One side empty from the start: the other drains from the
        # prologue state (the window of the first block, nothing
        # staged behind it).
        length = len_a or len_b
        window = LANES if length > LANES else length
        steps = _drain_steps(0, window, window, length)
        last_emitted = which == "union" or (which == "difference"
                                            and len_a > 0)
        common = 0
    if which == "intersection":
        total = common
    elif which == "union":
        total = len_a + len_b - common
    else:
        total = len_a - common
    k = steps + 1 if last_emitted or not steps else steps
    return [1, k, (k - 1) // unroll,
            -(-len_a // LANES) + -(-len_b // LANES),
            total // LANES, total % LANES], total


# The chase.  Per side X the datapath state is three integers: ``s``
# (elements consumed), ``w`` (end of the comparison window, which
# holds X[s:w]) and ``f`` (load frontier: window plus the Load stage).
# The prologue leaves ``w = f = min(4, n)``.  One SOP bundle then
#
# 1. takes the threshold ``thr = min(A[wa-1], B[wb-1])``;
# 2. consumes every window lane ``<= thr`` on both sides, so ``s``
#    moves to ``bisect_right(X, thr, s, w)``; both sides end the step
#    consumed exactly up to ``thr``;
# 3. union only: result states are four wide, so a step that would
#    emit more than four distinct values stops both sides at the
#    fourth distinct merged value instead;
# 4. refills the window from the Load stage -- ``w = min(s+4, f)``
#    with partial loading, ``min((s|3)+1, f)`` (whole blocks only)
#    without -- and stages the next 128-bit block once the Load stage
#    is empty, which keeps the frontier at ``f = min((w|3)+1, n)``.
#
# Values are compared through their ranks in the merged (union) order,
# so "consumed up to thr" is one integer ``m`` (merged values
# consumed), the union cut is ``m <= m_before + 4`` and a side's new
# ``s`` is the count of its window ranks below ``m``.  A step whose
# window on either side is empty while elements are still pending is a
# stall bundle (it consumes nothing); only the first block's
# consumption can cause one, before the second block is staged.  The
# result FIFO never throttles SOP: a bundle adds at most four values
# and the store stage drains four.  Once one side is exhausted, the
# other drains one window per bundle, in closed form
# (:func:`_drain_steps`).  The loop ends with the bundle after the last
# one that emitted results (it moves them to the FIFO), so
# ``k = steps + [last step emitted > 0]``.

def _merged_ranks(a, b):
    """Rank of every element of *a* and of *b* in their merged,
    duplicate-free order, as two lists."""
    both = _np.concatenate((a, b))
    # Two sorted runs: the stable argsort is a linear merge.
    order = _np.argsort(both, kind="stable")
    merged = both[order]
    fresh = _np.empty(merged.size, dtype=_np.int64)
    fresh[:1] = 0
    _np.not_equal(merged[1:], merged[:-1], out=fresh[1:])
    ranks = _np.empty(merged.size, dtype=_np.int64)
    ranks[order] = _np.cumsum(fresh)
    return ranks[:a.size].tolist(), ranks[a.size:].tolist()


def _chase_steps(which, a, b, partial_load):
    """``(steps, last step emitted > 0, |A & B|)`` for non-empty
    operand arrays *a*, *b*."""
    len_a = int(a.size)
    len_b = int(b.size)
    rank_a, rank_b = _merged_ranks(a, b)
    cut = which == "union"
    bisect_left = bisect.bisect_left
    # Refill: ``w = (s | grain) + reach`` is ``s + 4`` with partial
    # loading and ``(s | 3) + 1`` (the block end) without.
    grain, reach = (0, LANES) if partial_load else (LANES - 1, 1)
    sa = sb = merged = 0
    wa = fa = LANES if len_a > LANES else len_a
    wb = fb = LANES if len_b > LANES else len_b
    steps = 0
    while sa < len_a and sb < len_b:
        # A stall bundle (a window empty, elements pending) needs no
        # case of its own: only a step's leader is ever consumed whole,
        # so the empty window's top is the threshold just reached and
        # this step consumes nothing.
        steps += 1
        start_a = sa
        start_b = sb
        start = merged
        top_a = rank_a[wa - 1]
        top_b = rank_b[wb - 1]
        if top_a <= top_b:
            merged = top_a + 1
            if cut and merged - start > LANES:
                merged = start + LANES
                sa = bisect_left(rank_a, merged, sa, wa)
            else:
                sa = wa
            sb = bisect_left(rank_b, merged, sb, wb)
        else:
            merged = top_b + 1
            if cut and merged - start > LANES:
                merged = start + LANES
                sb = bisect_left(rank_b, merged, sb, wb)
            else:
                sb = wb
            sa = bisect_left(rank_a, merged, sa, wa)
        wa = (sa | grain) + reach
        if wa > fa:
            wa = fa
        wb = (sb | grain) + reach
        if wb > fb:
            wb = fb
        fa = (wa | 3) + 1
        if fa > len_a:
            fa = len_a
        fb = (wb | 3) + 1
        if fb > len_b:
            fb = len_b
    if sa < len_a:
        drained = _drain_steps(sa, wa, fa, len_a)
        emitted = which != "intersection"
    elif sb < len_b:
        drained = _drain_steps(sb, wb, fb, len_b)
        emitted = cut
    else:
        drained = 0
        # The last step consumed ``fresh`` merged values, of which
        # ``consumed - fresh`` were on both sides.
        fresh = merged - start
        if which == "intersection":
            emitted = sa - start_a + sb - start_b > fresh
        elif which == "difference":
            emitted = fresh > sb - start_b
        else:
            emitted = True
    union_size = max(rank_a[-1], rank_b[-1]) + 1
    return steps + drained, emitted, len_a + len_b - union_size


def _drain_steps(s, w, f, n):
    """Bundles one side needs to drain ``X[s:n]`` alone.

    Every bundle consumes its whole window; after the current window
    the next ends at the frontier and each later one is a full block,
    so ``ceil(n/4) - floor(w/4)`` more windows follow a window ending
    before ``n``.  An empty window with elements pending costs a stall
    bundle, and so does the window of the prologue state (``f == w``),
    whose refill finds the Load stage empty.
    """
    if s == n:
        return 0
    if s == w:
        return 1 + -(-n // LANES) - w // LANES
    if w == n:
        return 1
    return 1 + -(-n // LANES) - w // LANES + (f == w)


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
        storage layer hands over ndarray scan results directly);
        *values* is always a sorted int64 ndarray.  The result is
        computed once per operation, and the EIS prediction checks its
        output count against it.
        """
        extension = _eis_extension(processor)
        if extension is not None:
            partial = bool(extension.setdp.partial_load)
            kind = ("eis_set", which, partial, unroll)

            def runner(proc, a, b):
                return run_set_operation(proc, which, operand_list(a),
                                         operand_list(b),
                                         unroll=unroll,
                                         validate_input=False)

            def features(a, b, values):
                computed, total = eis_set_features(which, a, b, partial,
                                                   unroll)
                if total != len(values):
                    raise _CountMismatch("chase/result count mismatch")
                return computed
        else:
            kind = ("scalar_set", which)
            # The scalar kernels and their feature walk take lists.
            set_a = operand_list(set_a)
            set_b = operand_list(set_b)

            def runner(proc, a, b):
                return run_scalar_set_operation(proc, which, a, b,
                                                validate_input=False)

            def features(a, b, _values):
                return scalar_set_features(which, a, b)

        def result(a, b):
            return set_result(which, a, b)

        return self._execute(processor, kind, runner, features, result,
                             _set_probes(), (set_a, set_b))

    def merge_sort(self, processor, values):
        """Model one sort kernel; ``(values, cycles, source)``.

        *values* may be a list or a NumPy array (see
        :meth:`set_operation`); the sorted output is an int64 ndarray.
        """
        extension = _eis_extension(processor)
        if extension is not None:
            kind = ("eis_sort",)

            def runner(proc, data):
                return run_merge_sort(proc, operand_list(data),
                                      validate_input=False)

            def features(data, _values):
                return eis_sort_features(len(data))
        else:
            # The scalar kernel and its feature walk take lists.
            values = operand_list(values)
            if not values:
                # mirror run_scalar_merge_sort's degenerate empty run
                return _np.empty(0, dtype=_np.int64), 0, "costmodel"
            kind = ("scalar_sort",)

            def runner(proc, data):
                return run_scalar_merge_sort(proc, data,
                                             validate_input=False)

            def features(data, _values):
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
        """*feature_fn(*args, values)* sees the one computed result."""
        coefficients = None
        if self.enabled and getattr(processor, "_fault_hook",
                                    None) is None:
            coefficients = self._calibration(processor, kind, runner,
                                             feature_fn, result_fn,
                                             probe_sets)
        if coefficients is not None:
            values = result_fn(*args)
            try:
                cycles = _predict(coefficients,
                                  feature_fn(*args, values))
            except _CountMismatch:
                cycles = None
        if coefficients is None or cycles is None:
            iss_values, run = runner(processor, *args)
            self.counters["fallbacks"] += 1
            return _np.asarray(iss_values, dtype=_np.int64), \
                run.cycles, "iss"
        if self.verify:
            iss_values, iss_run = runner(processor, *args)
            if iss_values != values.tolist() \
                    or iss_run.cycles != cycles:
                self.counters["mismatches"] += 1
                self.counters["fallbacks"] += 1
                return _np.asarray(iss_values, dtype=_np.int64), \
                    iss_run.cycles, "iss"
        self.counters["hits"] += 1
        return values, cycles, "costmodel"

    def _calibration(self, processor, kind, runner, feature_fn,
                     result_fn, probe_sets):
        signature = config_signature(processor)
        if signature is None:
            return None
        key = (signature, kind)
        if key in _CALIBRATIONS:
            return _CALIBRATIONS[key]
        coefficients = self._calibrate(processor, runner, feature_fn,
                                       result_fn, probe_sets)
        _CALIBRATIONS[key] = coefficients
        if coefficients is None:
            self.counters["calibration_failures"] += 1
        else:
            self.counters["calibrations"] += 1
        return coefficients

    def _calibrate(self, processor, runner, feature_fn, result_fn,
                   probe_sets):
        """Fit and differentially validate one (config, kernel) model."""
        probes, validation = probe_sets
        rows = []
        cycles = []
        try:
            for args in probes:
                rows.append(feature_fn(*args, result_fn(*args)))
                _values, run = runner(processor, *args)
                cycles.append(run.cycles)
            solution = solve_exact(rows, cycles)
            if solution is None:
                return None
            coefficients = _scale_coefficients(solution)
            for args in validation:
                predicted = _predict(coefficients,
                                     feature_fn(*args, result_fn(*args)))
                _values, run = runner(processor, *args)
                if predicted != run.cycles:
                    return None
        except Exception:
            # any probe failure (chase/result divergence, simulation
            # error, unexpected input shape) means "cannot model":
            # fall back
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
