"""Query executor: one batch-at-a-time operator family.

Physical operators (:mod:`~repro.relational.executor.operators`) exchange
:class:`~repro.relational.executor.batch.Batch` column vectors (~1024 rows)
with selection vectors; ``rows()`` flattens any operator's batches for
consumers that want tuples.  Expressions are compiled once per plan
(:mod:`~repro.relational.executor.exprs`): filters and values to
whole-column kernels (:mod:`~repro.relational.executor.batch`), everything
without a kernel — subqueries, CASE — to a row closure applied per live
row.  Correlated subqueries run as parameterised subplans against an
environment stack, memoised when uncorrelated.

All column resolution happens at plan-compile time.
"""

from repro.relational.executor.exprs import ExprCompiler, Layout
from repro.relational.executor import operators
from repro.relational.executor.batch import BATCH_SIZE, Batch

__all__ = [
    "ExprCompiler",
    "Layout",
    "operators",
    "BATCH_SIZE",
    "Batch",
]
