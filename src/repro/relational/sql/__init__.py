"""SQL front end: lexer, AST and parser for the engine's SQL dialect.

The dialect covers what the paper's translation target needs: SELECT with
joins, subqueries (EXISTS / IN / scalar), GROUP BY / HAVING, ORDER BY /
LIMIT, set operations, DML, and DDL including views.  The lexer is shared
with the XNF language parser (:mod:`repro.xnf.lang`), which adds the
``OUT OF`` / ``RELATE`` / ``TAKE`` constructs and the ``->`` path operator
on top.
"""

from repro.relational.sql.lexer import Token
from repro.relational.sql.parser import parse_sql, parse_statements, SQLParser
from repro.relational.sql import ast

__all__ = ["Token", "parse_sql", "parse_statements", "SQLParser", "ast"]
