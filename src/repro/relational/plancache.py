"""Prepared-plan cache: AST normalization, fingerprints, LRU plan reuse.

The paper's architecture (section 4.3, Fig. 7/8) translates an XNF query
*once* into a set of SQL queries that are then executed many times — per
fixpoint round, per navigation, per refresh.  This module supplies the
engine-side machinery that makes the "once" real:

* :func:`normalize_statement` canonicalizes a statement by lifting the
  literal constants of its WHERE clauses (and JOIN conditions, and an
  UPDATE's SET clause) into a parameter vector, so ``WHERE pid = 17`` and
  ``WHERE pid = 99`` share one cache key.  The row list of a
  relation-valued FROM item (:class:`ast.RowsTable`) is lifted the same
  way, into one slot.
  Literals in SELECT lists, GROUP BY, HAVING and ORDER BY are
  left in place — those clauses carry positional/textual matching semantics
  (``ORDER BY 2`` is a column position) and their constants rarely vary
  between repetitions of a hot statement.
* :func:`referenced_objects` extracts the tables and views a statement
  depends on, recursing through derived tables, subqueries and view bodies.
* :class:`PlanCache` is a bounded LRU keyed on the normalized SQL text (plus
  the engine's rewrite flag).  Entries record the catalog version of every
  referenced object at compile time; a later mismatch — caused by CREATE /
  DROP / ALTER-equivalent index changes / ANALYZE — invalidates the entry
  lazily at lookup.
* :class:`StatementTemplate` lets a statement the cache has seen skip the
  parser: its token stream, with literal tokens as slots, is the key, and
  the template binds the lifted values straight from the tokens (see
  :meth:`PlanCache.match`).

Aggregate counters are also mirrored module-globally so the benchmark
harness can report hit rates across many Database instances.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.relational.catalog import Catalog
from repro.relational.sql import ast
from repro.relational.sql.lexer import SQL_TOKENS

#: Default number of cached plans per Database.
DEFAULT_CAPACITY = 256

#: Process-wide aggregate counters (all PlanCache instances), for benchmarks.
GLOBAL_STATS: Dict[str, int] = {
    "hits": 0,
    "misses": 0,
    "invalidations": 0,
    "evictions": 0,
}


def reset_global_stats() -> None:
    for key in GLOBAL_STATS:
        GLOBAL_STATS[key] = 0


def snapshot_global_stats() -> Dict[str, int]:
    return dict(GLOBAL_STATS)


# ===========================================================================
# Normalization: lift WHERE-clause literals into a parameter vector
# ===========================================================================


@dataclass
class NormalizedStatement:
    """A statement with its constants lifted out.

    ``statement`` contains :class:`ast.Parameter` nodes: indexes
    ``0 .. n_explicit-1`` are the user's own ``?`` placeholders, indexes
    ``n_explicit ..`` hold the lifted literals whose values are in
    ``lifted_values``.  The full bind vector of an execution is
    ``list(user_values) + lifted_values``.
    """

    statement: ast.Statement
    lifted_values: List[Any]
    n_explicit: int

    @cached_property
    def fingerprint(self) -> str:
        return self.statement.to_sql()


class _Lifter:
    """One normalization pass; assigns parameter slots after the explicit ones."""

    def __init__(self, n_explicit: int, sources: Optional[List[Any]]):
        self.next_index = n_explicit
        self.values: List[Any] = []
        self.sources = sources

    def lift(self, value: Any, source: Any) -> ast.Parameter:
        param = ast.Parameter(self.next_index)
        self.next_index += 1
        self.values.append(value)
        if self.sources is not None:
            self.sources.append(source)
        return param


def count_explicit_parameters(stmt: ast.Statement) -> int:
    """Highest explicit ``?`` ordinal + 1 (0 when the statement has none)."""
    highest = -1
    for query in ast.queries(stmt):
        for expr in ast.clause_exprs(query):
            for node in ast.walk(expr):
                if isinstance(node, ast.Parameter) and node.index > highest:
                    highest = node.index
    return highest + 1


def normalize_statement(
    stmt: ast.Statement, sources: Optional[List[Any]] = None
) -> NormalizedStatement:
    """Lift WHERE/JOIN/SET literals of a query or DML statement into parameters.

    The input is not mutated; unaffected sub-trees are shared with the copy.
    Statements that are neither queries nor DML are returned unchanged.
    *sources*, if given, receives the node each lifted value came from (its
    :class:`ast.Literal` or :class:`ast.RowsTable`), in slot order.
    """
    n_explicit = count_explicit_parameters(stmt)
    lifter = _Lifter(n_explicit, sources)
    if isinstance(stmt, (ast.SelectStmt, ast.SetOpStmt)):
        normalized: ast.Statement = _norm_query(stmt, lifter)
    elif isinstance(stmt, ast.UpdateStmt):
        normalized = ast.UpdateStmt(
            stmt.table,
            [(col, _norm_expr(expr, lifter)) for col, expr in stmt.assignments],
            _norm_expr(stmt.where, lifter),
        )
    elif isinstance(stmt, ast.DeleteStmt):
        normalized = ast.DeleteStmt(stmt.table, _norm_expr(stmt.where, lifter))
    elif isinstance(stmt, ast.InsertStmt) and stmt.select is not None:
        normalized = ast.InsertStmt(
            stmt.table, stmt.columns, select=_norm_query(stmt.select, lifter)
        )
    else:
        normalized = stmt
    return NormalizedStatement(normalized, lifter.values, n_explicit)


def _norm_query(q: ast.Query, lifter: _Lifter) -> ast.Query:
    if isinstance(q, ast.SetOpStmt):
        return ast.SetOpStmt(
            q.op,
            q.all,
            _norm_query(q.left, lifter),
            _norm_query(q.right, lifter),
            order_by=q.order_by,
            limit=q.limit,
            offset=q.offset,
        )
    return ast.SelectStmt(
        select_items=[
            ast.SelectItem(_norm_expr(item.expr, lifter, lift_literals=False), item.alias)
            for item in q.select_items
        ],
        from_tables=[_norm_table_ref(ref, lifter) for ref in q.from_tables],
        where=_norm_expr(q.where, lifter),
        group_by=q.group_by,
        having=q.having,
        order_by=q.order_by,
        limit=q.limit,
        offset=q.offset,
        distinct=q.distinct,
    )


def _norm_table_ref(ref: ast.TableRef, lifter: _Lifter) -> ast.TableRef:
    if isinstance(ref, ast.RowsTable):
        slot = lifter.lift(ref.rows, ref).index
        return ast.RowsTable(ref.columns, ref.rows, ref.alias, slot)
    if isinstance(ref, ast.DerivedTable):
        return ast.DerivedTable(_norm_query(ref.subquery, lifter), ref.alias)
    if isinstance(ref, ast.Join):
        return ast.Join(
            ref.kind,
            _norm_table_ref(ref.left, lifter),
            _norm_table_ref(ref.right, lifter),
            _norm_expr(ref.condition, lifter),
        )
    return ref


def _norm_expr(
    expr: Optional[ast.Expr], lifter: _Lifter, lift_literals: bool = True
) -> Optional[ast.Expr]:
    """Normalize an expression: its literals become parameters, and so do
    those of the WHERE clauses of its subqueries.

    Without *lift_literals* (SELECT-list position) the expression's own
    literals stay, for textual GROUP BY matching.
    """

    def norm(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.Literal):
            # NULL keeps its identity: IS NULL / three-valued folding treats
            # it specially and NULL constants never vary between hot
            # repetitions.
            if not lift_literals or node.value is None:
                return node
            return lifter.lift(node.value, node)
        if not isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            return None
        # the operand (IN) first, so its literals keep their slots
        changes = {name: ast.map(getattr(node, name), norm) for name in node.CHILDREN}
        return replace(node, subquery=_norm_query(node.subquery, lifter), **changes)

    return None if expr is None else ast.map(expr, norm)


# ===========================================================================
# Token-keyed statement templates
# ===========================================================================

#: a scanned statement: its key, then per token the number lexeme, the
#: string lexeme (quotes included) and the literal lexeme ("" elsewhere)
Scanned = Tuple[Tuple[Any, ...], Sequence[str], Sequence[str], Sequence[str]]


def scan_statement(sql: str, tokens: "re.Pattern[str]" = SQL_TOKENS) -> Optional[Scanned]:
    """Key *sql* by its token stream (scanned with *tokens*, the lexer's
    SQL or XNF pattern); None when the text does not lex.

    The key holds every name and operator and, per token, whether it is a
    literal: literal values are not part of it.  Whitespace and comments
    are skipped, so only their placement at the very end shows in the key.
    """
    names, literals, numbers, strings, ops, errors = zip(*tokens.findall(sql))
    if any(errors):
        return None
    return (names, ops, tuple(map(bool, literals))), numbers, strings, literals


def _number(text: str) -> Any:
    """A NUMBER lexeme's value, typed as :meth:`SQLParser.parse_primary` types it."""
    return float(text) if "." in text or "e" in text or "E" in text else int(text)


@dataclass
class StatementTemplate:
    """What compiling one text derived from it, keyed by its tokens.

    ``compiled`` is the statement with its literals lifted (its fingerprint
    is computed once), or the CO program of an XNF TAKE.  ``kept`` pins the literal tokens whose
    value shaped that fingerprint — LIMIT/OFFSET, literals of SELECT lists,
    GROUP BY, HAVING and ORDER BY — as (token position, lexeme).  ``slots``
    says where each lifted value comes from: (token position, sign) for a
    literal token, with sign 1 or -1 for a number (the parser folds unary
    minus into it) and 0 for a string; (-1, value) for a constant such as
    TRUE, whose token is part of the key.
    """

    compiled: Any
    kept: Tuple[Tuple[int, str], ...]
    slots: Tuple[Tuple[int, Any], ...]

    def stale(self, catalog: Catalog) -> bool:
        """A CO program whose tables changed catalog version."""
        return self.compiled.stale(catalog)

    def bind(self, scanned: Scanned) -> Optional[List[Any]]:
        """The lifted values of a text with this template's key, or None
        when a kept literal differs or a slot holds the other literal kind."""
        _, numbers, strings, literals = scanned
        for pos, lexeme in self.kept:
            if literals[pos] != lexeme:
                return None
        values: List[Any] = []
        for pos, sign in self.slots:
            if pos < 0:
                values.append(sign)
            elif sign:
                text = numbers[pos]
                if not text:
                    return None
                values.append(_number(text) if sign > 0 else -_number(text))
            else:
                text = strings[pos]
                if not text:
                    return None
                values.append(text[1:-1].replace("''", "'"))
        return values


def sql_template(
    scanned: Scanned, stmt: ast.Statement, literal_tokens: Dict[int, Tuple[ast.Literal, int]]
) -> Optional[StatementTemplate]:
    """The template of the scanned SQL text that parsed to *stmt*, its parse
    having put each literal node's token in *literal_tokens*: each lifted
    value's slot is the token its literal node was read from.  Statements
    with ``?`` placeholders get none (they run through ``prepare``)."""
    sources: List[Any] = []
    normalized = normalize_statement(stmt, sources)
    if normalized.n_explicit:
        return None
    positions = [literal_tokens.get(id(node), (None, None))[1] for node in sources]
    return token_template(scanned, normalized, positions, set())


def token_template(
    scanned: Scanned, compiled: Any, positions: Sequence[Optional[int]], pinned: Set[int]
) -> Optional[StatementTemplate]:
    """The template of a scanned text whose compiler reported, for each of
    *compiled*'s lifted values, the position of the literal token it was
    parsed from (None: not from one; ``~position`` when the parser folded a
    minus sign into the value), so no sentinel probe is needed.

    A token in *pinned* is kept whatever it feeds, and so is a token whose
    value a constant slot also holds: that slot may be a copy of it.
    """
    _, numbers, strings, literals = scanned

    def value(pos: int) -> Any:
        return _number(numbers[pos]) if numbers[pos] else strings[pos][1:-1].replace("''", "'")

    values = compiled.lifted_values
    constants = {v for v, pos in zip(values, positions) if pos is None}
    pinned = {pos if pos >= 0 else ~pos for pos in pinned} | {
        pos for pos, lit in enumerate(literals) if lit and value(pos) in constants
    }
    slots: List[Tuple[int, Any]] = []
    for v, pos in zip(values, positions):
        token = pos if pos is None or pos >= 0 else ~pos
        if token is None or token in pinned:
            slots.append((-1, v))
        else:
            slots.append((token, 0 if strings[token] else 1 if token == pos else -1))
    fed = {pos for pos, _ in slots if pos >= 0}
    kept = tuple((pos, lit) for pos, lit in enumerate(literals) if lit and pos not in fed)
    return _verified(StatementTemplate(compiled, kept, tuple(slots)), scanned)


def _verified(template: StatementTemplate, scanned: Scanned) -> Optional[StatementTemplate]:
    """*template*, if binding *scanned* gives back, typed, the lifted values
    it was derived from."""
    bound = template.bind(scanned)
    expected = template.compiled.lifted_values
    if bound is None or [(type(v), v) for v in bound] != [(type(v), v) for v in expected]:
        return None
    return template


def bind_rows(stmt: ast.Statement, values: Sequence[Any]) -> ast.Statement:
    """The normalized query *stmt* with the rows of its relation-valued FROM
    items put back from its parameter *values*, for the optimizer's
    estimates: a shallow copy when it has such items (XNF's generated
    queries, which hold them at the top level), else *stmt*."""
    if not isinstance(stmt, ast.SelectStmt) or not any(
        isinstance(ref, ast.RowsTable) and ref.param is not None for ref in stmt.from_tables
    ):
        return stmt
    tables = [
        replace(ref, rows=values[ref.param])
        if isinstance(ref, ast.RowsTable) and ref.param is not None
        else ref
        for ref in stmt.from_tables
    ]
    return replace(stmt, from_tables=tables)


# ===========================================================================
# Dependency extraction
# ===========================================================================


def referenced_objects(stmt: ast.Statement, catalog: Catalog) -> List[str]:
    """Upper-cased names of every table and view *stmt* depends on,
    including the base tables under referenced views."""
    names: List[str] = []

    def visit(root: Any) -> None:
        for query in ast.queries(root):
            if isinstance(query, (ast.InsertStmt, ast.UpdateStmt, ast.DeleteStmt)):
                add(query.table)
            elif isinstance(query, ast.SelectStmt):
                for ref in ast.table_refs(query):
                    if isinstance(ref, ast.NamedTable):
                        add(ref.name)

    def add(name: str) -> None:
        key = name.upper()
        if key in names:
            return
        names.append(key)
        view = catalog.get_view(key)
        if view is not None:
            visit(view.body)

    visit(stmt)
    return names


# ===========================================================================
# The cache
# ===========================================================================


@dataclass
class CacheEntry:
    plan: Any  # CompiledPlan (typed Any to avoid an import cycle)
    dependencies: Dict[str, int] = field(default_factory=dict)
    #: the plan scans at least one SYS virtual table.  The *plan* is still
    #: cacheable (virtual tables never bump their catalog version), but the
    #: result set is volatile by construction: every scan re-pulls the live
    #: registry snapshot.  Tracked so stats()/tests can prove SYS queries
    #: hit the cache without ever serving stale rows.
    volatile: bool = False


CacheKey = Tuple[str, bool]  # (normalized SQL text, enable_rewrite)


class PlanCache:
    """Bounded LRU of compiled plans with lazy catalog-version validation."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        # LRU mutation (move_to_end / eviction) and counter updates must be
        # atomic when sessions on several threads share the cache.
        self._mutex = threading.RLock()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        #: templates by (scope, token key), LRU, at most ``capacity`` in all
        #: (one key holds a variant per differing kept-literal value; a
        #: shape whose template was rejected holds none, in one slot): SQL
        #: statements under scope None, XNF TAKEs' CO programs under theirs
        self._templates: "OrderedDict[Any, Tuple[StatementTemplate, ...]]" = OrderedDict()
        self._template_count = 0
        self._program_count = 0
        #: lookups whose statement was recognised from its tokens, unparsed
        self.token_lookups = 0
        #: TAKEs that ran a kept CO program, and TAKEs compiled
        self.program_hits = 0
        self.program_misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def match(
        self, scanned: Scanned, scope: Any = None, catalog: Optional[Catalog] = None
    ) -> Optional[Tuple[StatementTemplate, List[Any]]]:
        """The template of a text whose shape was seen before, and its lifted
        values bound from the *scanned* tokens; None sends the text to the
        compiler.  *scope* is None for SQL text and, for an XNF TAKE, what its
        CO program depends on besides its tokens.  With *catalog*, a variant
        compiled against an older version of a table in it is dropped."""
        key = (scope, scanned[0])
        with self._mutex:
            variants = self._templates.get(key)
            if variants is None:
                return None
            if catalog is not None:
                live = tuple(t for t in variants if not t.stale(catalog))
                if len(live) < len(variants):
                    self._count(key, len(live) - len(variants))
                    del self._templates[key]
                    if not live:
                        return None
                    variants = self._templates[key] = live
            self._templates.move_to_end(key)
        for template in variants:
            values = template.bind(scanned)
            if values is not None:
                with self._mutex:
                    if scope is None:
                        self.token_lookups += 1
                    else:
                        self.program_hits += 1
                return template, values
        return None

    def remember(
        self,
        scanned: Scanned,
        derive: Callable[[], Optional[StatementTemplate]],
        scope: Any = None,
    ) -> None:
        """Keep the template *derive* makes of the text *scanned* just
        compiled (a SQL statement under scope None, an XNF TAKE's CO program
        under its scope) for :meth:`match`.  A shape whose template was
        rejected, and that holds no other variant, keeps an empty entry (one
        LRU slot) and is not derived again."""
        key = (scope, scanned[0])
        with self._mutex:
            if scope is not None:
                self.program_misses += 1
            if self.capacity <= 0 or self._templates.get(key) == ():
                return
        template = derive()
        with self._mutex:
            variants = self._templates.pop(key, ())
            if template is None and variants:
                self._templates[key] = variants  # its other kept-literal values still match
                return
            self._templates[key] = () if template is None else (template,) + variants
            self._count(key, 1)
            while self._template_count > self.capacity:
                oldest, variants = next(iter(self._templates.items()))
                if len(variants) > 1:
                    self._templates[oldest] = variants[:-1]
                else:
                    del self._templates[oldest]
                self._count(oldest, -1)

    def _count(self, key: Any, change: int) -> None:
        self._template_count += change
        if key[0] is not None:
            self._program_count += change

    def lookup(self, key: CacheKey, catalog: Catalog) -> Optional[CacheEntry]:
        """Return a still-valid entry for *key*, counting hit or miss.

        An entry is stale when any referenced object was re-created, dropped,
        index-altered or re-analyzed since compile time; stale entries are
        evicted here (lazy invalidation) and counted as invalidations.
        """
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                for name, version in entry.dependencies.items():
                    if catalog.object_version(name) != version:
                        del self._entries[key]
                        self.invalidations += 1
                        GLOBAL_STATS["invalidations"] += 1
                        entry = None
                        break
            if entry is None:
                self.misses += 1
                GLOBAL_STATS["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            GLOBAL_STATS["hits"] += 1
            return entry

    def store(self, key: CacheKey, entry: CacheEntry) -> None:
        with self._mutex:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                GLOBAL_STATS["evictions"] += 1

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
            self._templates.clear()
            self._template_count = self._program_count = 0

    def invalidate_all(self) -> int:
        """Drop every entry, counting each as an invalidation.

        Crash recovery calls this: cached plans hold references to Table
        objects whose heaps and indexes were just rebuilt, so none of them
        may survive.  Returns the number of entries dropped.
        """
        with self._mutex:
            dropped = len(self._entries)
            self._entries.clear()
            self._templates.clear()
            self._template_count = self._program_count = 0
            self.invalidations += dropped
            GLOBAL_STATS["invalidations"] += dropped
            return dropped

    def stats(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "templates": self._template_count - self._program_count,
                "token_lookups": self.token_lookups,
                "programs": self._program_count,
                "program_hits": self.program_hits,
                "program_misses": self.program_misses,
                "volatile_entries": sum(
                    1 for entry in self._entries.values() if entry.volatile
                ),
            }
