"""Static verification of query plans (the ``PLAN*`` family).

The :class:`~repro.db.engine.Query` IR is hand-built (and soon
machine-built — the SQL front end and the DSE tooling on the ROADMAP),
so plans deserve the same admission-time verification the kernel
caches give assembly: reject what would fault at run time, and warn
about shapes that are well-formed but almost certainly not what the
author meant.

Error-severity codes (enforced at :class:`QueryEngine` admission):

* ``PLAN001`` — a predicate leaf, ``ORDER BY`` or projection names a
  column the table does not have.
* ``PLAN002`` — a predicate leaf's column has no secondary index
  (leaf scans require one; full-scan shapes are unsupported).
* ``PLAN007`` — ``ORDER BY`` on a table whose RID space exceeds the
  RID packing budget (``2^RID_BITS`` rows) — the executor would raise
  mid-query.

Warning/info codes (reported, never fatal):

* ``PLAN003`` (warning) — a leaf is provably empty: an inverted range
  (``low > high``), an empty ``IN`` list, or a comparison value
  outside the 32-bit value domain.
* ``PLAN004`` (warning) — an AND conjunction is unsatisfiable: the
  per-column value domains it pins have an empty intersection, or an
  ANDNOT subtracts a superset of its left side.
* ``PLAN005`` (warning) — a leaf is trivially true (an unbounded
  ``Range``): the predicate scans the whole table through an index.
* ``PLAN006`` (info) — duplicate subtrees under one combinator; the
  engine's CSE absorbs the cost, but the shape is usually a typo.
* ``PLAN008`` (info) — the engine serves this query through the ISS
  because its configuration is cost-model-ineligible (cached cores).
* ``PLAN009`` (warning) — a non-positive ``LIMIT`` (0 returns
  nothing; negative values slice from the tail).

:func:`lint_query` returns the
:class:`~repro.analysis.diagnostics.DiagnosticReport`;
:func:`lint_query_or_raise` raises :class:`PlanError` on
error-severity findings unless ``REPRO_LINT_WARN_ONLY=1`` downgrades
them to warnings (the same escape hatch the kernel lint honors).
"""

import os
import warnings

from ..analysis.diagnostics import DiagnosticReport
from ..analysis.linter import LintError, LintWarning
from ..core.common import SENTINEL
from .executor import RID_BITS
from .predicates import And, AndNot, Combinator, Eq, In, Leaf, \
    Range, signature


class PlanError(LintError, KeyError):
    """A query failed plan verification.

    Also a :class:`KeyError` so callers that predate the plan linter
    (missing-column / missing-index handling) keep working.
    """

    def __str__(self):
        # KeyError.__str__ repr()s the message; keep it readable.
        return self.report.format(min_severity="error")


def lint_query(query, engine=None, report=None):
    """Run PLAN001..PLAN009 over one :class:`Query`."""
    if report is None:
        report = DiagnosticReport("query on %r"
                                  % getattr(query.table, "name", "?"))
    table = query.table
    source = "<query:%s>" % getattr(table, "name", "?")
    if query.predicate is not None:
        _check_tree(report, query.predicate, table, source)
        _check_satisfiability(report, query.predicate, source)
    if query.order_by is not None:
        if query.order_by not in table.column_names:
            report.add("PLAN001", "error",
                       "ORDER BY column %r does not exist on table %r"
                       % (query.order_by, table.name), source)
        elif table.rid_limit() > (1 << RID_BITS):
            report.add("PLAN007", "error",
                       "ORDER BY on a %d-wide RID space exceeds the "
                       "%d-row RID packing budget; the sort would "
                       "fail at run time" % (table.rid_limit(),
                                             1 << RID_BITS),
                       source)
    if query.columns:
        for column in query.columns:
            if column not in table.column_names:
                report.add("PLAN001", "error",
                           "projected column %r does not exist on "
                           "table %r" % (column, table.name), source)
    if query.limit is not None and query.limit <= 0:
        report.add("PLAN009", "warning",
                   "LIMIT %d is not positive: 0 returns no rows and "
                   "negative values slice from the tail"
                   % query.limit, source)
    if engine is not None and engine.cost_model is not None:
        from ..core.costmodel import config_signature
        if config_signature(engine.processor) is None:
            report.add("PLAN008", "info",
                       "configuration %r is cost-model-ineligible; "
                       "this query will be served by the ISS"
                       % engine.config_name, source)
    return report


def lint_query_or_raise(query, engine=None, warn=True):
    """Lint and enforce; the :class:`QueryEngine` admission hook.

    Errors raise :class:`PlanError` unless ``REPRO_LINT_WARN_ONLY=1``
    is set, which downgrades them to :class:`LintWarning` warnings.
    """
    report = lint_query(query, engine=engine)
    if report.has_errors \
            and os.environ.get("REPRO_LINT_WARN_ONLY") != "1":
        raise PlanError(report)
    if warn:
        for diagnostic in report.at_least("warning"):
            warnings.warn(diagnostic.format(), LintWarning,
                          stacklevel=2)
    return report


# ---------------------------------------------------------------------------
# per-leaf checks
# ---------------------------------------------------------------------------

def _check_tree(report, predicate, table, source, seen=None):
    if isinstance(predicate, Leaf):
        _check_leaf(report, predicate, table, source)
        return
    if not isinstance(predicate, Combinator):
        report.add("PLAN001", "error",
                   "not a predicate: %r" % (predicate,), source)
        return
    if _signature_safe(predicate.left) is not None \
            and _signature_safe(predicate.left) \
            == _signature_safe(predicate.right):
        report.add("PLAN006", "info",
                   "both sides of %s are the identical subtree %r"
                   % (type(predicate).__name__.upper(),
                      predicate.left), source)
    _check_tree(report, predicate.left, table, source)
    _check_tree(report, predicate.right, table, source)


def _signature_safe(predicate):
    try:
        return signature(predicate)
    except TypeError:
        return None


def _check_leaf(report, leaf, table, source):
    if leaf.column not in table.column_names:
        report.add("PLAN001", "error",
                   "column %r does not exist on table %r"
                   % (leaf.column, table.name), source)
        return
    if not table.has_index(leaf.column):
        report.add("PLAN002", "error",
                   "column %r of table %r has no secondary index; "
                   "leaf predicates scan through one (call "
                   "create_index)" % (leaf.column, table.name),
                   source)
    if isinstance(leaf, Eq):
        if not 0 <= leaf.value < SENTINEL:
            report.add("PLAN003", "warning",
                       "%r can never match: %r is outside the 32-bit "
                       "value domain" % (leaf, leaf.value), source)
    elif isinstance(leaf, Range):
        if leaf.low is None and leaf.high is None:
            report.add("PLAN005", "warning",
                       "%r is trivially true: an unbounded range "
                       "scans the whole table" % (leaf,), source)
        elif leaf.low is not None and leaf.high is not None \
                and leaf.low > leaf.high:
            report.add("PLAN003", "warning",
                       "%r can never match: the range is inverted "
                       "(low > high)" % (leaf,), source)
    elif isinstance(leaf, In):
        if not leaf.values:
            report.add("PLAN003", "warning",
                       "%r can never match: the IN list is empty"
                       % (leaf,), source)
        elif all(not 0 <= value < SENTINEL
                 for value in leaf.values):
            report.add("PLAN003", "warning",
                       "%r can never match: every IN value is "
                       "outside the 32-bit value domain" % (leaf,),
                       source)


# ---------------------------------------------------------------------------
# conjunction satisfiability
# ---------------------------------------------------------------------------

class _Domain:
    """Per-column value constraints accumulated down an AND chain."""

    __slots__ = ("low", "high", "allowed")

    def __init__(self):
        self.low = 0
        self.high = SENTINEL - 1
        self.allowed = None  # set of values, or None for "any"

    def narrow_range(self, low, high):
        if low is not None:
            self.low = max(self.low, low)
        if high is not None:
            self.high = min(self.high, high)

    def narrow_values(self, values):
        values = set(values)
        if self.allowed is None:
            self.allowed = values
        else:
            self.allowed &= values

    @property
    def empty(self):
        if self.low > self.high:
            return True
        if self.allowed is not None:
            return not any(self.low <= value <= self.high
                           for value in self.allowed)
        return False


def _check_satisfiability(report, predicate, source):
    """PLAN004 over every AND-connected region of the tree."""
    for conjunction in _conjunctions(predicate):
        domains = {}
        for leaf in conjunction:
            domain = domains.setdefault(leaf.column, _Domain())
            if isinstance(leaf, Eq):
                domain.narrow_values((leaf.value,))
            elif isinstance(leaf, Range):
                domain.narrow_range(leaf.low, leaf.high)
            elif isinstance(leaf, In):
                domain.narrow_values(leaf.values)
        for column, domain in sorted(domains.items()):
            if domain.empty:
                report.add(
                    "PLAN004", "warning",
                    "conjunction over column %r is unsatisfiable: "
                    "the combined constraints admit no value"
                    % column, source)
    _check_andnot_cancellation(report, predicate, source)


def _conjunctions(predicate):
    """Maximal AND-connected leaf groups (Or/AndNot are barriers)."""
    groups = []

    def walk(node):
        if isinstance(node, And):
            return walk(node.left) + walk(node.right)
        if isinstance(node, Leaf):
            return [node]
        if isinstance(node, Combinator):
            # A new satisfiability region on each side.
            collect(node.left)
            collect(node.right)
        return []

    def collect(node):
        group = walk(node)
        if len(group) > 1:
            groups.append(group)

    collect(predicate)
    return groups


def _check_andnot_cancellation(report, predicate, source):
    if isinstance(predicate, AndNot):
        left = _signature_safe(predicate.left)
        if left is not None \
                and left == _signature_safe(predicate.right):
            report.add("PLAN004", "warning",
                       "ANDNOT subtracts its own left side; the "
                       "result is always empty", source)
    if isinstance(predicate, Combinator):
        _check_andnot_cancellation(report, predicate.left, source)
        _check_andnot_cancellation(report, predicate.right, source)
