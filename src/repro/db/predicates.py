"""Predicate trees over indexed columns.

A WHERE clause is a tree of leaf predicates (equality, range, IN) and
AND / OR / ANDNOT combinators.  Leaves resolve to RID lists via
secondary-index scans; combinators map one-to-one onto the EIS set
instructions (AND -> intersection, OR -> union, ANDNOT -> difference)
— the paper's "INTERSECT, UNION, or DIFFERENCE" clause processing
(Section 2.3).
"""


class Predicate:
    """Base class; subclasses implement ``scan`` or expose children."""

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __sub__(self, other):
        return AndNot(self, other)


class Leaf(Predicate):
    """A predicate answered by one secondary-index scan."""

    def __init__(self, column):
        self.column = column

    def scan(self, table):
        raise NotImplementedError

    def required_index(self):
        return self.column


class Eq(Leaf):
    def __init__(self, column, value):
        super().__init__(column)
        self.value = value

    def scan(self, table):
        return table.index(self.column).scan_eq(self.value)

    def __repr__(self):
        return "%s = %r" % (self.column, self.value)


class Range(Leaf):
    """Inclusive range predicate: low <= column <= high."""

    def __init__(self, column, low=None, high=None):
        super().__init__(column)
        self.low = low
        self.high = high

    def scan(self, table):
        return table.index(self.column).scan_range(self.low, self.high)

    def __repr__(self):
        return "%s in [%r, %r]" % (self.column, self.low, self.high)


class In(Leaf):
    """Membership predicate.  *values* is a set: it is kept sorted and
    duplicate-free, so each matching row is scanned once."""

    def __init__(self, column, values):
        super().__init__(column)
        self.values = tuple(sorted(set(values)))

    def scan(self, table):
        return table.index(self.column).scan_in(self.values)

    def __repr__(self):
        return "%s IN %r" % (self.column, self.values)


class Combinator(Predicate):
    """A set operation over two sub-predicates' RID lists."""

    operation = None

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return "(%r %s %r)" % (self.left,
                               type(self).__name__.upper(), self.right)


class And(Combinator):
    operation = "intersection"


class Or(Combinator):
    operation = "union"


class AndNot(Combinator):
    """Rows matching *left* but not *right* (NOT via difference)."""

    operation = "difference"


def signature(predicate):
    """Hashable structural identity of a predicate (sub)tree.

    Two predicates with equal signatures scan/compute identical RID
    lists on the same table — the cache key of the query engine's
    scan cache and common-subexpression reuse.
    """
    if isinstance(predicate, Eq):
        return ("eq", predicate.column, predicate.value)
    if isinstance(predicate, Range):
        return ("range", predicate.column, predicate.low,
                predicate.high)
    if isinstance(predicate, In):
        return ("in", predicate.column, predicate.values)
    if isinstance(predicate, Combinator):
        return (predicate.operation, signature(predicate.left),
                signature(predicate.right))
    raise TypeError("unsignable predicate: %r" % (predicate,))


def leaves(predicate):
    """All leaf predicates of a tree, left to right."""
    if isinstance(predicate, Leaf):
        return [predicate]
    return leaves(predicate.left) + leaves(predicate.right)


def validate_indexes(predicate, table):
    """Ensure every leaf's column has a secondary index."""
    missing = sorted({leaf.column for leaf in leaves(predicate)
                      if not table.has_index(leaf.column)})
    if missing:
        raise KeyError("missing secondary indexes on %s; call "
                       "create_index" % ", ".join(missing))
