"""QGM rewrite rules: select-box merging, predicate pushdown, folding.

Rules run to a (bounded) fixpoint.  Each rule preserves bag semantics:

* **merge** — a quantifier over a plain SPJ child box is inlined into its
  parent (covers SQL view merging, since views become derived quantifiers),
* **pushdown** — a parent predicate referencing exactly one derived
  quantifier moves inside that child (also through set-operation arms),
* **fold** — constant arithmetic/comparisons evaluate at compile time and
  trivially-true conjuncts disappear.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import ExecutionError
from repro.relational.qgm.model import (
    Box,
    GroupByBox,
    HeadColumn,
    QGMColumnRef,
    Quantifier,
    SelectBox,
    SetOpBox,
    SubqueryExpr,
    TopBox,
    referenced_quantifiers,
)
from repro.relational.sql import ast
from repro.relational.types import sql_arith, sql_compare

_MAX_PASSES = 10


class Rewriter:
    """Applies the rewrite rules to a box tree, in place."""

    def __init__(self, enable_merge: bool = True, enable_pushdown: bool = True,
                 enable_fold: bool = True):
        self.enable_merge = enable_merge
        self.enable_pushdown = enable_pushdown
        self.enable_fold = enable_fold
        self.merges = 0
        self.pushdowns = 0
        self.folds = 0

    def rewrite(self, box: Box) -> Box:
        for _ in range(_MAX_PASSES):
            before = (self.merges, self.pushdowns, self.folds)
            box = self._rewrite_box(box)
            if (self.merges, self.pushdowns, self.folds) == before:
                break
        return box

    # -- traversal --------------------------------------------------------------

    def _rewrite_box(self, box: Box) -> Box:
        if isinstance(box, SelectBox):
            return self._rewrite_select(box)
        if isinstance(box, GroupByBox):
            if box.input is not None:
                box.input.box = self._rewrite_box(box.input.box)
            if self.enable_fold:
                box.having = self._fold_predicates(box.having)
                for col in box.head:
                    col.expr = self._fold(col.expr)
            self._rewrite_subqueries_in(box)
            return box
        if isinstance(box, SetOpBox):
            box.left = self._rewrite_box(box.left)
            box.right = self._rewrite_box(box.right)
            return box
        if isinstance(box, TopBox):
            box.child = self._rewrite_box(box.child)
            return box
        return box

    def _rewrite_select(self, box: SelectBox) -> Box:
        for quant in box.quantifiers:
            quant.box = self._rewrite_box(quant.box)
        if self.enable_fold:
            box.predicates = self._fold_predicates(box.predicates)
            for col in box.head:
                col.expr = self._fold(col.expr)
        if self.enable_merge:
            self._merge_children(box)
        if self.enable_pushdown:
            self._push_down(box)
        self._rewrite_subqueries_in(box)
        return box

    def _rewrite_subqueries_in(self, box: Union[SelectBox, GroupByBox]) -> None:
        """Rewrite the body of every subquery in *box*'s expressions."""

        def rewrite(node: ast.Expr) -> Optional[ast.Expr]:
            if not isinstance(node, SubqueryExpr):
                return None
            body = self._rewrite_box(node.box)
            operand = None if node.operand is None else ast.map(node.operand, rewrite)
            if body is node.box and operand is node.operand:
                return node
            return SubqueryExpr(node.kind, body, operand, node.negated, node.correlated)

        for col in box.head:
            col.expr = ast.map(col.expr, rewrite)
        if isinstance(box, SelectBox):
            box.predicates = [ast.map(p, rewrite) for p in box.predicates]
            box.outer_joins = [
                (name, [ast.map(p, rewrite) for p in preds])
                for name, preds in box.outer_joins
            ]
        elif isinstance(box, GroupByBox):
            box.group_keys = [ast.map(k, rewrite) for k in box.group_keys]
            box.having = [ast.map(p, rewrite) for p in box.having]

    # -- rule: merge SPJ child boxes ----------------------------------------------

    def _merge_children(self, box: SelectBox) -> None:
        outer_names = {name for name, _ in box.outer_joins}
        changed = True
        while changed:
            changed = False
            for quant in list(box.quantifiers):
                if quant.name in outer_names:
                    continue  # null-supplying sides keep their box boundary
                child = quant.box
                if not self._mergeable(child):
                    continue
                self._merge_one(box, quant, child)  # type: ignore[arg-type]
                self.merges += 1
                changed = True
                break

    def _mergeable(self, child: Box) -> bool:
        return (
            isinstance(child, SelectBox)
            and not child.distinct
            and not child.outer_joins
            and len(child.quantifiers) >= 1
        )

    def _merge_one(
        self, box: SelectBox, quant: Quantifier, child: SelectBox
    ) -> None:
        taken = {q.name for q in box.quantifiers if q is not quant}
        rename: Dict[str, str] = {}
        for inner in child.quantifiers:
            new_name = inner.name
            while new_name in taken:
                new_name = f"{new_name}_{child.id}"
            rename[inner.name] = new_name
            taken.add(new_name)

        def rename_ref(node: ast.Expr) -> Optional[ast.Expr]:
            if not isinstance(node, QGMColumnRef):
                return None
            return QGMColumnRef(rename.get(node.quantifier, node.quantifier), node.column)

        head_map = {
            col.name: ast.map(col.expr, rename_ref) for col in child.head
        }

        def replace_ref(node: ast.Expr) -> Optional[ast.Expr]:
            if not isinstance(node, QGMColumnRef) or node.quantifier != quant.name:
                return None
            if node.column not in head_map:
                raise ExecutionError(
                    f"merge: column {node.column} missing from child head"
                )
            return head_map[node.column]

        for col in box.head:
            col.expr = ast.map(col.expr, replace_ref)
        box.predicates = [ast.map(p, replace_ref) for p in box.predicates]
        box.outer_joins = [
            (name, [ast.map(p, replace_ref) for p in preds])
            for name, preds in box.outer_joins
        ]
        position = box.quantifiers.index(quant)
        new_quants = [
            Quantifier(rename[inner.name], inner.box, inner.kind)
            for inner in child.quantifiers
        ]
        box.quantifiers[position : position + 1] = new_quants
        box.predicates.extend(ast.map(p, rename_ref) for p in child.predicates)

    # -- rule: predicate pushdown ----------------------------------------------------

    def _push_down(self, box: SelectBox) -> None:
        outer_names = {name for name, _ in box.outer_joins}
        kept: List[ast.Expr] = []
        for pred in box.predicates:
            refs = referenced_quantifiers(pred)
            if len(refs) != 1:
                kept.append(pred)
                continue
            name = next(iter(refs))
            if name in outer_names:
                kept.append(pred)
                continue
            quant = box.quantifier(name)
            if self._push_into(quant.box, name, pred):
                self.pushdowns += 1
            else:
                kept.append(pred)
        box.predicates = kept

    def _push_into(self, child: Box, qname: str, pred: ast.Expr) -> bool:
        """Try to move *pred* (which references only *qname*) inside child."""
        if isinstance(child, SelectBox):
            # Child must be one the merge rule skipped (e.g. DISTINCT);
            # filtering before DISTINCT over whole rows is equivalent.
            head_map = {col.name: col.expr for col in child.head}

            def replace(node: ast.Expr) -> Optional[ast.Expr]:
                if not isinstance(node, QGMColumnRef) or node.quantifier != qname:
                    return None
                return head_map[node.column]

            try:
                child.predicates.append(ast.map(pred, replace))
            except KeyError:
                return False
            return True
        if isinstance(child, SetOpBox):
            # Distribute over both arms; each arm sees the predicate over its
            # own head.  Safe for UNION/INTERSECT/EXCEPT in both variants.
            columns = child.output_columns()
            for arm_attr in ("left", "right"):
                arm = getattr(child, arm_attr)
                arm_columns = arm.output_columns()
                mapping = dict(zip(columns, arm_columns))

                def replace_arm(node: ast.Expr, mapping=mapping) -> Optional[ast.Expr]:
                    if not isinstance(node, QGMColumnRef) or node.quantifier != qname:
                        return None
                    return QGMColumnRef("__arm__", mapping[node.column])

                arm_pred = ast.map(pred, replace_arm)
                wrapped = _wrap_with_filter(arm, arm_pred)
                if wrapped is None:
                    return False
                setattr(child, arm_attr, wrapped)
            return True
        return False

    # -- rule: constant folding -----------------------------------------------------

    def _fold_predicates(self, preds: List[ast.Expr]) -> List[ast.Expr]:
        result: List[ast.Expr] = []
        for pred in preds:
            folded = self._fold(pred)
            if isinstance(folded, ast.Literal) and folded.value is True:
                self.folds += 1
                continue
            result.append(folded)
        return result

    def _fold(self, expr: ast.Expr) -> ast.Expr:
        """Fold the constants of *expr*'s operator spine, operands first."""
        if not isinstance(expr, (ast.BinaryOp, ast.UnaryOp)):
            return expr
        # map hands each operand to _fold, whose result replaces it
        expr = ast.map(expr, lambda node: None if node is expr else self._fold(node))
        if isinstance(expr, ast.BinaryOp):
            left, right = expr.left, expr.right
            if isinstance(left, ast.Literal) and isinstance(right, ast.Literal):
                value = _eval_const(expr.op, left.value, right.value)
                if value is not _NO_FOLD:
                    self.folds += 1
                    return ast.Literal(value)
            if expr.op == "AND":
                if isinstance(left, ast.Literal) and left.value is True:
                    self.folds += 1
                    return right
                if isinstance(right, ast.Literal) and right.value is True:
                    self.folds += 1
                    return left
            return expr
        operand = expr.operand
        if (
            expr.op == "-"
            and isinstance(operand, ast.Literal)
            and isinstance(operand.value, (int, float))
        ):
            self.folds += 1
            return ast.Literal(-operand.value)
        return expr


_NO_FOLD = object()


def _eval_const(op: str, left, right):
    try:
        if op in ("+", "-", "*", "/", "%", "||"):
            return sql_arith(op, left, right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return sql_compare(op, left, right)
    except Exception:
        return _NO_FOLD
    return _NO_FOLD


def _wrap_with_filter(arm: Box, pred: ast.Expr) -> Optional[Box]:
    """Wrap a set-op arm in a filtering SelectBox (pred over '__arm__')."""
    if isinstance(arm, SelectBox) and not arm.distinct:
        head_map = {col.name: col.expr for col in arm.head}

        def replace(node: ast.Expr) -> Optional[ast.Expr]:
            if not isinstance(node, QGMColumnRef) or node.quantifier != "__arm__":
                return None
            return head_map[node.column]

        arm.predicates.append(ast.map(pred, replace))
        return arm
    wrapper = SelectBox("pushdown")
    quant = Quantifier("__arm__", arm)
    wrapper.quantifiers.append(quant)
    for col in arm.output_columns():
        wrapper.head.append(HeadColumn(col, QGMColumnRef("__arm__", col)))
    wrapper.predicates.append(pred)
    return wrapper
