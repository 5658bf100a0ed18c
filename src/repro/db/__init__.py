"""A miniature columnar engine over the database processor.

The application layer of the paper's motivation (Section 2.3):
secondary-index scans produce RID lists; WHERE-clause AND/OR/NOT maps
onto the EIS intersection/union/difference instructions; ORDER BY runs
on the merge-sort instructions via key/RID packing.  On top of the
single-query :class:`QueryExecutor`, :class:`QueryEngine` serves query
batches with the calibrated cost-model fast path, scan caching and
common-subexpression reuse; :class:`ShardedEngine` scales that out
across N partitioned shard engines with the EIS union kernel as the
gather reduce.
"""

from .columnar import (ColumnarIndex, ColumnarTable, DeltaBatch,
                       delta_mask, signature_affected)
from .engine import (Query, QueryEngine, QueryResult, StandingQuery,
                     StandingUpdate)
from .executor import QueryExecutor, QueryStats, RID_BITS
from .failover import CircuitBreaker, ShardError, rid_checksum
from .partition import (HashPartitioner, Partitioner, RangePartitioner,
                        make_partitioner, partition_table, plan_replicas,
                        shard_may_match, skew_ratio)
from .predicates import (And, AndNot, Eq, In, Leaf, Or, Predicate,
                         Range, leaves, signature, validate_indexes)
from .shard import ShardedEngine, ShardedResult

__all__ = ["ColumnarIndex", "ColumnarTable", "DeltaBatch",
           "delta_mask", "signature_affected",
           "Query", "QueryEngine", "QueryResult",
           "StandingQuery", "StandingUpdate",
           "QueryExecutor", "QueryStats", "RID_BITS",
           "CircuitBreaker", "ShardError", "rid_checksum",
           "HashPartitioner", "Partitioner", "RangePartitioner",
           "make_partitioner", "partition_table",
           "plan_replicas", "shard_may_match", "skew_ratio",
           "And", "AndNot", "Eq", "In", "Leaf", "Or", "Predicate",
           "Range", "leaves", "signature", "validate_indexes",
           "ShardedEngine", "ShardedResult"]
