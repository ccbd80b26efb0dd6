"""AST → QGM translation: scoping, name resolution, view expansion.

The builder walks a parsed query and produces a box tree.  Views are merged
structurally (a view reference becomes a quantifier over the view's own box
tree) — the rewrite engine may later inline them.  Correlated column
references resolve through a scope chain to :class:`OuterRef` nodes, which
the executor evaluates against its environment stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
    walk_resolved,
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

        def reroute(expr: ast.Expr) -> ast.Expr:
            resolved = self._resolve_expr(expr, scope)
            return _remap_to_quantifier(resolved, flat_names, "g")

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
        if expr.to_sql() in group_key_sql:
            return
        if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
            return
        if isinstance(expr, QGMColumnRef):
            raise TypeCheckError(
                f"column {expr.to_sql()} in {context} is neither grouped "
                "nor aggregated"
            )
        for child in _direct_children(expr):
            self._check_group_expr(child, group_key_sql, context)

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
        if isinstance(expr, (ast.Literal, ast.Parameter)):
            return expr
        if isinstance(expr, ast.ColumnRef):
            if scope is None:
                raise CatalogError(
                    f"column reference {expr.to_sql()!r} outside any scope"
                )
            quant, column, depth = scope.resolve(expr.table, expr.column)
            if depth == 0:
                return QGMColumnRef(quant, column)
            return OuterRef(quant, column)
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(
                expr.op,
                self._resolve_expr(expr.left, scope),
                self._resolve_expr(expr.right, scope),
            )
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, self._resolve_expr(expr.operand, scope))
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(self._resolve_expr(expr.operand, scope), expr.negated)
        if isinstance(expr, ast.Between):
            return ast.Between(
                self._resolve_expr(expr.operand, scope),
                self._resolve_expr(expr.low, scope),
                self._resolve_expr(expr.high, scope),
                expr.negated,
            )
        if isinstance(expr, ast.InList):
            return ast.InList(
                self._resolve_expr(expr.operand, scope),
                [self._resolve_expr(item, scope) for item in expr.items],
                expr.negated,
            )
        if isinstance(expr, ast.InSubquery):
            sub_box = self.build_query(expr.subquery, scope)
            if len(sub_box.output_columns()) != 1:
                raise TypeCheckError("IN subquery must return one column")
            node = SubqueryExpr(
                "IN",
                sub_box,
                operand=self._resolve_expr(expr.operand, scope),
                negated=expr.negated,
            )
            node.correlated = _box_is_correlated(sub_box)
            return node
        if isinstance(expr, ast.Exists):
            sub_box = self.build_query(expr.subquery, scope)
            node = SubqueryExpr("EXISTS", sub_box, negated=expr.negated)
            node.correlated = _box_is_correlated(sub_box)
            return node
        if isinstance(expr, ast.ScalarSubquery):
            sub_box = self.build_query(expr.subquery, scope)
            if len(sub_box.output_columns()) != 1:
                raise TypeCheckError("scalar subquery must return one column")
            node = SubqueryExpr("SCALAR", sub_box)
            node.correlated = _box_is_correlated(sub_box)
            return node
        if isinstance(expr, ast.FuncCall):
            return ast.FuncCall(
                expr.name,
                [self._resolve_expr(arg, scope) for arg in expr.args],
                distinct=expr.distinct,
                star=expr.star,
            )
        if isinstance(expr, ast.Case):
            return ast.Case(
                [
                    (
                        self._resolve_expr(cond, scope),
                        self._resolve_expr(result, scope),
                    )
                    for cond, result in expr.whens
                ],
                (
                    self._resolve_expr(expr.else_result, scope)
                    if expr.else_result is not None
                    else None
                ),
            )
        if isinstance(expr, (QGMColumnRef, OuterRef, SubqueryExpr)):
            return expr  # already resolved (XNF compiler path)
        raise TypeCheckError(f"unsupported expression {expr!r}")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _direct_children(expr: ast.Expr) -> List[ast.Expr]:
    if isinstance(expr, ast.BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand]
    if isinstance(expr, ast.IsNull):
        return [expr.operand]
    if isinstance(expr, ast.Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, ast.InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, ast.FuncCall):
        return list(expr.args)
    if isinstance(expr, ast.Case):
        children: List[ast.Expr] = []
        for cond, result in expr.whens:
            children.extend((cond, result))
        if expr.else_result is not None:
            children.append(expr.else_result)
        return children
    return []


def _remap_to_quantifier(
    expr: ast.Expr, flat_names: Dict[Tuple[str, str], str], quantifier: str
) -> ast.Expr:
    """Rewrite QGMColumnRef(q, c) to QGMColumnRef(quantifier, flat_name)."""
    if isinstance(expr, QGMColumnRef):
        flat = flat_names.get((expr.quantifier, expr.column))
        if flat is None:
            raise CatalogError(
                f"column {expr.to_sql()} not available after grouping"
            )
        return QGMColumnRef(quantifier, flat)
    if isinstance(expr, (ast.Literal, ast.Parameter, OuterRef, SubqueryExpr)):
        return expr
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            _remap_to_quantifier(expr.left, flat_names, quantifier),
            _remap_to_quantifier(expr.right, flat_names, quantifier),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(
            expr.op, _remap_to_quantifier(expr.operand, flat_names, quantifier)
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(
            _remap_to_quantifier(expr.operand, flat_names, quantifier), expr.negated
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            _remap_to_quantifier(expr.operand, flat_names, quantifier),
            _remap_to_quantifier(expr.low, flat_names, quantifier),
            _remap_to_quantifier(expr.high, flat_names, quantifier),
            expr.negated,
        )
    if isinstance(expr, ast.InList):
        return ast.InList(
            _remap_to_quantifier(expr.operand, flat_names, quantifier),
            [_remap_to_quantifier(item, flat_names, quantifier) for item in expr.items],
            expr.negated,
        )
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name,
            [_remap_to_quantifier(arg, flat_names, quantifier) for arg in expr.args],
            distinct=expr.distinct,
            star=expr.star,
        )
    if isinstance(expr, ast.Case):
        return ast.Case(
            [
                (
                    _remap_to_quantifier(cond, flat_names, quantifier),
                    _remap_to_quantifier(result, flat_names, quantifier),
                )
                for cond, result in expr.whens
            ],
            (
                _remap_to_quantifier(expr.else_result, flat_names, quantifier)
                if expr.else_result is not None
                else None
            ),
        )
    raise TypeCheckError(f"unsupported expression in grouped query: {expr!r}")


def _box_is_correlated(box: Box) -> bool:
    """A box is correlated if any expression below it holds an OuterRef."""
    def exprs_of(b: Box):
        if isinstance(b, SelectBox):
            for col in b.head:
                yield col.expr
            yield from b.predicates
            for _, preds in b.outer_joins:
                yield from preds
        elif isinstance(b, GroupByBox):
            for col in b.head:
                yield col.expr
            yield from b.group_keys
            yield from b.having
        elif isinstance(b, TopBox):
            for expr, _ in b.order_by:
                yield expr

    def visit(b: Box) -> bool:
        for expr in exprs_of(b):
            for node in walk_resolved(expr):
                if isinstance(node, OuterRef):
                    return True
                if isinstance(node, SubqueryExpr) and visit(node.box):
                    return True
        return any(visit(child) for child in b.children())

    return visit(box)
