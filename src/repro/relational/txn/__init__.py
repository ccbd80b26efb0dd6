"""Transactions: snapshots, write locks, write-ahead logging, recovery.

The paper's architecture argument is that "transaction, recovery and storage
management ... are completely shared between XNF and regular DBMS users".
This package provides that shared substrate: MVCC snapshots behind the two
isolation degrees the paper names (repeatable read and cursor stability),
a table-granularity write-lock manager, logical undo for ROLLBACK, and a
write-ahead log whose replay reconstructs committed state after a
simulated crash.
"""

from repro.relational.txn.locks import LockManager
from repro.relational.txn.wal import WriteAheadLog, LogRecord
from repro.relational.txn.manager import Transaction, TransactionManager, IsolationLevel

__all__ = [
    "LockManager",
    "WriteAheadLog",
    "LogRecord",
    "Transaction",
    "TransactionManager",
    "IsolationLevel",
]
