"""AST → QGM translation: scoping, name resolution, view expansion.

The builder walks a parsed query and produces a box tree.  Views are merged
structurally (a view reference becomes a quantifier over the view's own box
tree) — the rewrite engine may later inline them.  Correlated column
references resolve through a scope chain to :class:`OuterRef` nodes, which
the executor evaluates against its environment stack.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, TypeCheckError
from repro.relational.catalog import Catalog
from repro.relational.qgm.model import (
    BaseTableBox,
    Box,
    GroupByBox,
    HeadColumn,
    OuterRef,
    QGMColumnRef,
    Quantifier,
    SelectBox,
    SetOpBox,
    SubqueryExpr,
    TopBox,
    ValuesBox,
    collect_outer_refs,
)
from repro.relational.sql import ast


class _Scope:
    """One name-resolution scope: the quantifiers of a box being built."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.quantifiers: Dict[str, List[str]] = {}  # name -> columns

    def add(self, name: str, columns: List[str]) -> None:
        if name in self.quantifiers:
            raise CatalogError(f"duplicate table alias {name!r}")
        self.quantifiers[name] = columns

    def resolve(self, table: Optional[str], column: str) -> Tuple[str, str, int]:
        """Resolve to (quantifier, column, depth). depth 0 = current scope."""
        depth = 0
        scope: Optional[_Scope] = self
        while scope is not None:
            found = scope._resolve_local(table, column)
            if found is not None:
                return found[0], found[1], depth
            scope = scope.parent
            depth += 1
        where = f"{table}.{column}" if table else column
        raise CatalogError(f"cannot resolve column reference {where!r}")

    def _resolve_local(
        self, table: Optional[str], column: str
    ) -> Optional[Tuple[str, str]]:
        if table is not None:
            for name, columns in self.quantifiers.items():
                if name.upper() == table.upper():
                    for col in columns:
                        if col.upper() == column.upper():
                            return name, col
                    raise CatalogError(
                        f"table {table!r} has no column {column!r}"
                    )
            return None
        matches = []
        for name, columns in self.quantifiers.items():
            for col in columns:
                if col.upper() == column.upper():
                    matches.append((name, col))
        if len(matches) > 1:
            raise CatalogError(f"ambiguous column reference {column!r}")
        return matches[0] if matches else None


class QGMBuilder:
    """Builds QGM boxes from parsed queries against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- public entry points ----------------------------------------------------

    def build_query(self, query: ast.Query, scope: Optional[_Scope] = None) -> Box:
        box = self._build_query_body(query, scope)
        order_by = getattr(query, "order_by", [])
        limit = getattr(query, "limit", None)
        offset = getattr(query, "offset", None)
        if order_by or limit is not None or offset is not None:
            resolved = self._resolve_order_by(order_by, box, scope)
            hidden = getattr(box, "hidden_sort_columns", 0)
            top = TopBox(box, resolved, limit, offset)
            if hidden:
                top.visible = len(box.output_columns()) - hidden
            box = top
        return box

    def resolve_standalone_predicate(
        self,
        expr: ast.Expr,
        quantifier: str,
        columns: Sequence[str],
        scope: Optional[_Scope] = None,
    ) -> ast.Expr:
        """Resolve a bare predicate over one named tuple variable.

        Used by the engine for UPDATE/DELETE WHERE clauses and by the XNF
        compiler for SUCH THAT predicates.
        """
        local = _Scope(scope)
        local.add(quantifier, list(columns))
        return self._resolve_expr(expr, local)

    # -- query bodies --------------------------------------------------------------

    def _build_query_body(self, query: ast.Query, scope: Optional[_Scope]) -> Box:
        if isinstance(query, ast.SetOpStmt):
            left = self._build_query_body(query.left, scope)
            right = self._build_query_body(query.right, scope)
            if len(left.output_columns()) != len(right.output_columns()):
                raise TypeCheckError(
                    f"{query.op} arms have different column counts"
                )
            return SetOpBox(query.op, query.all, left, right)
        return self._build_select(query, scope)

    def _build_select(self, stmt: ast.SelectStmt, outer: Optional[_Scope]) -> Box:
        box = SelectBox()
        scope = _Scope(outer)
        # FROM clause: register quantifiers; joins add predicates.
        for table_ref in stmt.from_tables:
            self._add_table_ref(box, scope, table_ref)
        if stmt.where is not None:
            box.predicates.extend(
                self._resolve_expr(conj, scope)
                for conj in ast.conjuncts(stmt.where)
            )
        # Expand stars and resolve the head.
        items = self._expand_stars(stmt.select_items, scope)
        needs_group = bool(stmt.group_by) or any(
            ast.contains_aggregate(item.expr) for item in items
        )
        if stmt.having is not None and not needs_group:
            needs_group = True
        if not needs_group:
            used = set()
            for pos, item in enumerate(items):
                name = self._head_name(item, pos, used)
                box.head.append(
                    HeadColumn(name, self._resolve_expr(item.expr, scope))
                )
            box.distinct = stmt.distinct
            box.sort_scope = scope  # lets ORDER BY reach FROM-clause columns
            return box
        return self._build_group_by(stmt, items, box, scope)

    def _build_group_by(
        self,
        stmt: ast.SelectStmt,
        items: List[ast.SelectItem],
        spj: SelectBox,
        scope: _Scope,
    ) -> Box:
        """Wrap the SPJ box in a GroupByBox.

        The SPJ box outputs every (quantifier, column) pair flattened to
        ``q__col`` names; group keys, aggregate arguments and HAVING are then
        re-expressed over the single input quantifier ``g``.
        """
        flat_names: Dict[Tuple[str, str], str] = {}
        for quant in spj.quantifiers:
            for col in quant.columns():
                flat = f"{quant.name}__{col}"
                flat_names[(quant.name, col)] = flat
                spj.head.append(HeadColumn(flat, QGMColumnRef(quant.name, col)))

        group_box = GroupByBox()
        group_box.input = Quantifier("g", spj)

        def regroup(node: ast.Expr) -> Optional[ast.Expr]:
            if not isinstance(node, QGMColumnRef):
                return None
            flat = flat_names.get((node.quantifier, node.column))
            if flat is None:
                raise CatalogError(
                    f"column {node.to_sql()} not available after grouping"
                )
            return QGMColumnRef("g", flat)

        def reroute(expr: ast.Expr) -> ast.Expr:
            return ast.map(self._resolve_expr(expr, scope), regroup)

        group_box.group_keys = [reroute(key) for key in stmt.group_by]
        group_key_sql = {key.to_sql() for key in group_box.group_keys}
        used: set = set()
        group_box.raw_head_sql = []  # pre-resolution text, for ORDER BY
        for pos, item in enumerate(items):
            name = self._head_name(item, pos, used)
            resolved = reroute(item.expr)
            self._check_group_expr(resolved, group_key_sql, name)
            group_box.head.append(HeadColumn(name, resolved))
            group_box.raw_head_sql.append(item.expr.to_sql())
        if stmt.having is not None:
            for conj in ast.conjuncts(stmt.having):
                resolved = reroute(conj)
                self._check_group_expr(resolved, group_key_sql, "HAVING")
                group_box.having.append(resolved)
        if stmt.distinct:
            distinct_box = SelectBox("distinct")
            quant = Quantifier("d", group_box)
            distinct_box.quantifiers.append(quant)
            for col in group_box.output_columns():
                distinct_box.head.append(HeadColumn(col, QGMColumnRef("d", col)))
            distinct_box.distinct = True
            return distinct_box
        return group_box

    def _check_group_expr(
        self, expr: ast.Expr, group_key_sql: set, context: str
    ) -> None:
        """Every non-aggregate column use must appear in the GROUP BY keys."""

        def check(node: ast.Expr) -> Optional[ast.Expr]:
            if node.to_sql() in group_key_sql or (
                isinstance(node, ast.FuncCall) and node.is_aggregate
            ):
                return node  # covered: do not look inside
            if isinstance(node, QGMColumnRef):
                raise TypeCheckError(
                    f"column {node.to_sql()} in {context} is neither grouped "
                    "nor aggregated"
                )
            return None

        ast.map(expr, check)

    # -- FROM-clause handling ------------------------------------------------------

    def _add_table_ref(
        self, box: SelectBox, scope: _Scope, ref: ast.TableRef
    ) -> None:
        if isinstance(ref, ast.NamedTable):
            self._add_named_table(box, scope, ref)
        elif isinstance(ref, ast.DerivedTable):
            child = self.build_query(ref.subquery, scope)
            quant = Quantifier(ref.alias, child)
            box.quantifiers.append(quant)
            scope.add(ref.alias, child.output_columns())
        elif isinstance(ref, ast.RowsTable):
            values = ValuesBox(list(ref.columns), ref.rows, ref.param)
            box.quantifiers.append(Quantifier(ref.alias, values))
            scope.add(ref.alias, values.output_columns())
        elif isinstance(ref, ast.Join):
            self._add_join(box, scope, ref)
        else:  # pragma: no cover
            raise TypeCheckError(f"unsupported table reference {ref!r}")

    def _add_named_table(
        self, box: SelectBox, scope: _Scope, ref: ast.NamedTable
    ) -> None:
        view = self.catalog.get_view(ref.name)
        if view is not None:
            child = self.build_query(view.body, None)
            binding = ref.alias or ref.name
            box.quantifiers.append(Quantifier(binding, child))
            scope.add(binding, child.output_columns())
            return
        table = self.catalog.get_table(ref.name)
        child = BaseTableBox(table.name, table.column_names())
        binding = ref.alias or ref.name
        box.quantifiers.append(Quantifier(binding, child))
        scope.add(binding, child.columns)

    def _add_join(self, box: SelectBox, scope: _Scope, join: ast.Join) -> None:
        self._add_table_ref(box, scope, join.left)
        before = len(box.quantifiers)
        self._add_table_ref(box, scope, join.right)
        new_quants = box.quantifiers[before:]
        condition = (
            [
                self._resolve_expr(conj, scope)
                for conj in ast.conjuncts(join.condition)
            ]
            if join.condition is not None
            else []
        )
        if join.kind == "LEFT":
            if len(new_quants) != 1:
                raise TypeCheckError(
                    "LEFT JOIN right side must be a single table or subquery"
                )
            box.outer_joins.append((new_quants[0].name, condition))
        else:
            box.predicates.extend(condition)

    # -- head helpers -------------------------------------------------------------

    def _expand_stars(
        self, items: List[ast.SelectItem], scope: _Scope
    ) -> List[ast.SelectItem]:
        expanded: List[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                table = item.expr.table
                for name, columns in scope.quantifiers.items():
                    if table is not None and name.upper() != table.upper():
                        continue
                    for col in columns:
                        expanded.append(
                            ast.SelectItem(ast.ColumnRef(name, col), None)
                        )
                if table is not None and not any(
                    name.upper() == table.upper() for name in scope.quantifiers
                ):
                    raise CatalogError(f"unknown table {table!r} in {table}.*")
            else:
                expanded.append(item)
        if not expanded:
            raise TypeCheckError("SELECT list is empty after * expansion")
        return expanded

    def _head_name(self, item: ast.SelectItem, pos: int, used: set) -> str:
        if item.alias:
            base = item.alias
        elif isinstance(item.expr, ast.ColumnRef):
            base = item.expr.column
        else:
            base = f"col{pos + 1}"
        name = base
        suffix = 1
        while name.upper() in used:
            suffix += 1
            name = f"{base}_{suffix}"
        used.add(name.upper())
        return name

    def _resolve_order_by(
        self,
        order_items: List[ast.OrderItem],
        box: Box,
        scope: Optional[_Scope],
    ) -> List[Tuple[ast.Expr, bool]]:
        """Resolve ORDER BY items.

        Resolution order follows SQL practice: 1-based positions, then the
        query's own output columns, then — for plain SELECT blocks — the
        FROM-clause scope, in which case a *hidden* head column is appended
        to carry the sort key (the planner trims it away after sorting).
        """
        columns = box.output_columns()
        sort_scope: Optional[_Scope] = getattr(box, "sort_scope", None)
        resolved: List[Tuple[ast.Expr, bool]] = []
        for item in order_items:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                pos = expr.value
                if not 1 <= pos <= len(columns):
                    raise TypeCheckError(f"ORDER BY position {pos} out of range")
                resolved.append(
                    (QGMColumnRef("__out__", columns[pos - 1]), item.ascending)
                )
                continue
            if isinstance(expr, ast.FuncCall) and isinstance(box, GroupByBox):
                # ORDER BY COUNT(*) etc.: match textually against the head
                # expressions of the grouping box.
                wanted = expr.to_sql()
                matched = False
                raw_sql = getattr(box, "raw_head_sql", [])
                for head_col, raw in zip(box.head, raw_sql):
                    if raw == wanted or head_col.expr.to_sql() == wanted:
                        resolved.append(
                            (
                                QGMColumnRef("__out__", head_col.name),
                                item.ascending,
                            )
                        )
                        matched = True
                        break
                if matched:
                    continue
            if isinstance(expr, ast.ColumnRef):
                match = [c for c in columns if c.upper() == expr.column.upper()]
                # Unqualified names always try the output first; qualified
                # names fall back to it when there is no FROM scope to
                # resolve against (e.g. ORDER BY d.dname after GROUP BY
                # d.dname, where the group key is an output column).
                if match and (expr.table is None or sort_scope is None):
                    resolved.append(
                        (QGMColumnRef("__out__", match[0]), item.ascending)
                    )
                    continue
            if sort_scope is not None and isinstance(box, SelectBox):
                if box.distinct:
                    raise TypeCheckError(
                        "ORDER BY column must appear in the SELECT list "
                        "when DISTINCT is used"
                    )
                inner = self._resolve_expr(expr, sort_scope)
                hidden = f"__sort_{len(box.head)}"
                box.head.append(HeadColumn(hidden, inner))
                box.hidden_sort_columns = (
                    getattr(box, "hidden_sort_columns", 0) + 1
                )
                resolved.append((QGMColumnRef("__out__", hidden), item.ascending))
                continue
            local = _Scope(None)
            local.add("__out__", list(columns))
            resolved.append((self._resolve_expr(expr, local), item.ascending))
        return resolved

    # -- expression resolution -------------------------------------------------------

    def _resolve_expr(self, expr: ast.Expr, scope: Optional[_Scope]) -> ast.Expr:
        # the unresolved node kinds whose resolution is that of their children
        by_children = (
            ast.Literal,
            ast.Parameter,
            ast.BinaryOp,
            ast.UnaryOp,
            ast.IsNull,
            ast.Between,
            ast.InList,
            ast.FuncCall,
            ast.Case,
        )

        def resolve(node: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(node, ast.ColumnRef):
                if scope is None:
                    raise CatalogError(
                        f"column reference {node.to_sql()!r} outside any scope"
                    )
                quant, column, depth = scope.resolve(node.table, node.column)
                if depth == 0:
                    return QGMColumnRef(quant, column)
                return OuterRef(quant, column)
            if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
                return self._resolve_subquery(node, scope, resolve)
            if isinstance(node, (QGMColumnRef, OuterRef, SubqueryExpr)):
                return node  # already resolved (XNF compiler path)
            if not isinstance(node, by_children):
                raise TypeCheckError(f"unsupported expression {node!r}")
            return None

        return ast.map(expr, resolve)

    def _resolve_subquery(
        self,
        node: ast.Expr,
        scope: Optional[_Scope],
        resolve: Callable[[ast.Expr], Optional[ast.Expr]],
    ) -> SubqueryExpr:
        box = self.build_query(node.subquery, scope)
        correlated = bool(collect_outer_refs(box))
        if isinstance(node, ast.Exists):
            return SubqueryExpr("EXISTS", box, None, node.negated, correlated)
        if len(box.output_columns()) != 1:
            kind = "IN" if isinstance(node, ast.InSubquery) else "scalar"
            raise TypeCheckError(f"{kind} subquery must return one column")
        if isinstance(node, ast.ScalarSubquery):
            return SubqueryExpr("SCALAR", box, correlated=correlated)
        operand = ast.map(node.operand, resolve)
        return SubqueryExpr("IN", box, operand, node.negated, correlated)

