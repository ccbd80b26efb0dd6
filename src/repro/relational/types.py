"""SQL value domain and three-valued logic.

SQL values are represented by plain Python objects: ``int``, ``float``,
``str``, ``bool`` and ``None`` for the SQL NULL.  This module centralises

* the type objects used by the catalog (:data:`INTEGER`, :data:`FLOAT`,
  :data:`VARCHAR`, :data:`BOOLEAN`),
* coercion/validation of Python values against a declared type, and
* the three-valued logic (3VL) combinators ``tv_and``/``tv_or``/``tv_not``
  plus NULL-propagating comparison and arithmetic helpers used by the
  expression evaluator.

The paper stresses that XNF "preserves semantics of SQL, including null
values and duplicates" (section 5); keeping 3VL in one audited module is what
makes that guarantee testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import TypeCheckError

#: Sentinel documented alias for the SQL NULL (we use ``None`` internally).
Null = None


@dataclass(frozen=True)
class SQLType:
    """A SQL data type as recorded in the catalog.

    ``name`` is the canonical upper-case type name.  ``size`` is only
    meaningful for VARCHAR and is advisory (we do not truncate, matching the
    permissive behaviour of SQLite, which our tests cross-check against).
    """

    name: str
    size: Optional[int] = None

    def __str__(self) -> str:
        if self.size is not None:
            return f"{self.name}({self.size})"
        return self.name

    def validate(self, value: Any) -> Any:
        """Coerce *value* to this type, raising :class:`TypeCheckError`.

        NULL is accepted by every type; nullability is enforced separately by
        column constraints.
        """
        if value is None:
            return None
        if self.name == "INTEGER":
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise TypeCheckError(f"value {value!r} is not an INTEGER")
        if self.name == "FLOAT":
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            raise TypeCheckError(f"value {value!r} is not a FLOAT")
        if self.name == "VARCHAR":
            if isinstance(value, str):
                return value
            raise TypeCheckError(f"value {value!r} is not a VARCHAR")
        if self.name == "BOOLEAN":
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
            raise TypeCheckError(f"value {value!r} is not a BOOLEAN")
        raise TypeCheckError(f"unknown SQL type {self.name}")


INTEGER = SQLType("INTEGER")
FLOAT = SQLType("FLOAT")
BOOLEAN = SQLType("BOOLEAN")


def VARCHAR(size: Optional[int] = None) -> SQLType:
    """Build a VARCHAR type, optionally with an advisory size."""
    return SQLType("VARCHAR", size)


_TYPE_NAMES = {
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "BIGINT": INTEGER,
    "SMALLINT": INTEGER,
    "FLOAT": FLOAT,
    "REAL": FLOAT,
    "DOUBLE": FLOAT,
    "DECIMAL": FLOAT,
    "NUMERIC": FLOAT,
    "BOOLEAN": BOOLEAN,
    "BOOL": BOOLEAN,
    "VARCHAR": SQLType("VARCHAR"),
    "CHAR": SQLType("VARCHAR"),
    "TEXT": SQLType("VARCHAR"),
    "STRING": SQLType("VARCHAR"),
}


def type_from_name(name: str, size: Optional[int] = None) -> SQLType:
    """Resolve a type name from SQL source text to a :class:`SQLType`."""
    base = _TYPE_NAMES.get(name.upper())
    if base is None:
        raise TypeCheckError(f"unknown SQL type {name!r}")
    if base.name == "VARCHAR" and size is not None:
        return SQLType("VARCHAR", size)
    return base


# --------------------------------------------------------------------------
# Three-valued logic.  Truth values are True, False, and None (unknown).
# --------------------------------------------------------------------------


def tv_and(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    """SQL AND: false dominates, otherwise unknown propagates."""
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def tv_or(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    """SQL OR: true dominates, otherwise unknown propagates."""
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def tv_not(a: Optional[bool]) -> Optional[bool]:
    """SQL NOT: unknown stays unknown."""
    if a is None:
        return None
    return not a


def sql_compare(op: str, left: Any, right: Any) -> Optional[bool]:
    """Evaluate a SQL comparison with NULL propagation.

    Returns ``None`` (unknown) when either operand is NULL.  Mixed
    numeric/string comparisons raise :class:`TypeCheckError` rather than
    silently ordering across domains.
    """
    if left is None or right is None:
        return None
    _check_comparable(left, right)
    if op == "=":
        return left == right
    if op in ("<>", "!="):
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise TypeCheckError(f"unknown comparison operator {op!r}")


def sql_in(value: Any, items: Sequence[Any]) -> Optional[bool]:
    """SQL ``value IN (items)`` over evaluated items: the left-to-right
    ``sql_compare`` fold, which stops at the first match and raises on
    the first mismatched domain before it."""
    result: Optional[bool] = False
    for item in items:
        result = tv_or(result, sql_compare("=", value, item))
        if result is True:
            break
    return result


def _check_comparable(left: Any, right: Any) -> None:
    numeric = (int, float, bool)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return
    if isinstance(left, str) and isinstance(right, str):
        return
    raise TypeCheckError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


def sql_arith(op: str, left: Any, right: Any) -> Any:
    """Evaluate SQL arithmetic with NULL propagation.

    ``+`` doubles as string concatenation when both operands are strings
    (handy for expressions in tests; standard SQL uses ``||``, which the
    parser maps here too).
    """
    if left is None or right is None:
        return None
    if op == "||":
        return _as_str(left) + _as_str(right)
    if isinstance(left, str) or isinstance(right, str):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        raise TypeCheckError(f"cannot apply {op!r} to strings")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, int) and isinstance(right, int):
            if right == 0:
                raise_div_by_zero()
            # SQL integer division truncates toward zero.
            quotient = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                quotient = -quotient
            return quotient
        if right == 0:
            raise_div_by_zero()
        return left / right
    if op == "%":
        if right == 0:
            raise_div_by_zero()
        return math.fmod(left, right) if isinstance(left, float) or isinstance(right, float) else int(math.fmod(left, right))
    raise TypeCheckError(f"unknown arithmetic operator {op!r}")


def raise_div_by_zero() -> None:
    from repro.errors import ExecutionError

    raise ExecutionError("division by zero")


def _as_str(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return str(value)


def sql_like(value: Any, pattern: Any) -> Optional[bool]:
    """SQL LIKE with ``%`` and ``_`` wildcards, NULL-propagating."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise TypeCheckError("LIKE requires string operands")
    import re

    regex = ""
    for ch in pattern:
        if ch == "%":
            regex += ".*"
        elif ch == "_":
            regex += "."
        else:
            regex += re.escape(ch)
    return re.fullmatch(regex, value, flags=re.DOTALL) is not None


#: Ordering key for ORDER BY: SQL NULLs sort first (ascending), and values
#: sort within their own domain.  Mixed-domain columns raise at compare time
#: in sql_compare; for sorting we build a total order with a domain tag.
def sort_key(value: Any):
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, value)
