"""Query executor: one batch-at-a-time operator family.

Physical operators (:mod:`~repro.relational.executor.operators`) exchange
:class:`~repro.relational.executor.batch.Batch` column vectors (~1024 rows)
with selection vectors; ``rows()`` flattens any operator's batches for
consumers that want tuples.  Expressions are compiled once per plan
(:mod:`~repro.relational.executor.exprs`), each to a kernel over a batch's
live rows, and each filter to a selection function (using the selection
kernels of :mod:`~repro.relational.executor.batch` where one fits).
Correlated subqueries run as parameterised subplans against an
environment stack, memoised when uncorrelated.

All column resolution happens at plan-compile time.
"""

from repro.relational.executor.exprs import Layout, VecExprCompiler
from repro.relational.executor import operators
from repro.relational.executor.batch import BATCH_SIZE, Batch

__all__ = [
    "Layout",
    "VecExprCompiler",
    "operators",
    "BATCH_SIZE",
    "Batch",
]
