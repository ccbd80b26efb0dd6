"""The expression algebra: each node kind declares its children once, and
``ast.walk`` / ``ast.map`` / ``ast.queries`` are derived from that
declaration.

The structural tests build one expression per node kind, so a node kind
added without a ``CHILDREN`` declaration, or without an example here, fails
before any traversal can silently skip it.
"""

import pytest

from repro.errors import TypeCheckError
from repro.relational.engine import Database
from repro.relational.qgm.model import (
    BaseTableBox,
    OuterRef,
    QGMColumnRef,
    SubqueryExpr,
)
from repro.relational.sql import ast
from repro.relational.sql.parser import parse_statements
from repro.xnf.lang import xast


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


NODE_MODULES = {ast.__name__, QGMColumnRef.__module__, xast.__name__}


def _node_kinds():
    return {cls for cls in _subclasses(ast.Expr) if cls.__module__ in NODE_MODULES}


def _query(where=None):
    return ast.SelectStmt(
        [ast.SelectItem(ast.ColumnRef(None, "b"))], [ast.NamedTable("T2")], where
    )


def _leaf(n):
    return ast.ColumnRef("t", f"c{n}")


def _examples():
    """One expression per node kind whose children are all distinct nodes."""
    box = BaseTableBox("T2", ["b"])
    return {
        ast.Literal: ast.Literal(1),
        ast.Parameter: ast.Parameter(0),
        ast.ColumnRef: _leaf(0),
        ast.Star: ast.Star("t"),
        ast.BinaryOp: ast.BinaryOp("+", _leaf(1), _leaf(2)),
        ast.UnaryOp: ast.UnaryOp("-", _leaf(1)),
        ast.IsNull: ast.IsNull(_leaf(1), negated=True),
        ast.Between: ast.Between(_leaf(1), _leaf(2), _leaf(3)),
        ast.InList: ast.InList(_leaf(1), [_leaf(2), _leaf(3)]),
        ast.InSubquery: ast.InSubquery(_leaf(1), _query()),
        ast.Exists: ast.Exists(_query(), negated=True),
        ast.ScalarSubquery: ast.ScalarSubquery(_query()),
        ast.FuncCall: ast.FuncCall("COALESCE", [_leaf(1), _leaf(2)]),
        ast.Case: ast.Case([(_leaf(1), _leaf(2)), (_leaf(3), _leaf(4))], _leaf(5)),
        QGMColumnRef: QGMColumnRef("q", "c"),
        OuterRef: OuterRef("q", "c"),
        SubqueryExpr: SubqueryExpr("IN", box, _leaf(1)),
        xast.PathExpr: xast.PathExpr(
            "d", [xast.PathStep("employment", "e", ast.BinaryOp("<", _leaf(1), _leaf(2)))]
        ),
    }


EXAMPLES = _examples()


def _declared_children(node):
    """The child nodes as the example builder intends them, in order."""
    out = []
    for name in type(node).CHILDREN:
        value = getattr(node, name)
        if isinstance(value, ast.Expr):
            out.append(value)
        elif value is not None:
            for item in value:
                out.extend(item if isinstance(item, tuple) else [item])
    return out


class TestDeclarations:
    def test_every_node_kind_declares_its_children(self):
        kinds = _node_kinds()
        assert kinds  # the discovery itself works
        undeclared = [cls.__name__ for cls in kinds if "CHILDREN" not in vars(cls)]
        assert undeclared == []

    def test_every_node_kind_has_an_example(self):
        assert _node_kinds() == set(EXAMPLES)

    def test_children_name_dataclass_fields(self):
        for cls in _node_kinds():
            assert set(cls.CHILDREN) <= set(cls.__match_args__), cls.__name__

    def test_subquery_bodies_are_not_children(self):
        assert ast.InSubquery.CHILDREN == ("operand",)
        assert ast.Exists.CHILDREN == ()
        assert ast.ScalarSubquery.CHILDREN == ()
        assert SubqueryExpr.CHILDREN == ("operand",)


@pytest.mark.parametrize("kind", list(EXAMPLES), ids=lambda cls: cls.__name__)
class TestPerNodeKind:
    def test_identity_map_returns_the_same_object(self, kind):
        node = EXAMPLES[kind]
        assert ast.map(node, lambda n: None) is node

    def test_walk_yields_each_node_once_parents_first(self, kind):
        node = EXAMPLES[kind]
        nodes = ast.walk(node)
        assert nodes == [node, *_declared_children(node)]
        assert len({id(n) for n in nodes}) == len(nodes)

    def test_map_reaches_every_child(self, kind):
        node = EXAMPLES[kind]
        children = _declared_children(node)
        seen = []

        def rename(n):
            if n is not node:
                seen.append(n)
                return ast.Literal(len(seen))
            return None

        mapped = ast.map(node, rename)
        assert seen == children
        if children:
            assert mapped is not node and type(mapped) is kind
            assert [n.value for n in _declared_children(mapped)] == list(
                range(1, len(children) + 1)
            )
            # the other fields survive the rebuild
            for name in kind.__match_args__:
                if name not in kind.CHILDREN:
                    assert getattr(mapped, name) is getattr(node, name)


class TestMap:
    def test_only_the_changed_path_is_rebuilt(self):
        (stmt,) = parse_statements("SELECT a FROM T WHERE a = 1 AND b = c")
        where = stmt.where
        lifted = ast.map(
            where, lambda n: ast.Parameter(0) if isinstance(n, ast.Literal) else None
        )
        assert lifted is not where and lifted.left is not where.left
        assert lifted.right is where.right  # untouched conjunct is shared
        assert lifted.left.left is where.left.left
        assert where.left.right == ast.Literal(1)  # the input is not mutated

    def test_replacement_is_not_descended(self):
        expr = ast.BinaryOp("+", ast.Literal(1), ast.Literal(2))
        seen = []

        def fn(n):
            seen.append(n)
            return ast.Literal(3) if isinstance(n, ast.BinaryOp) else None

        assert ast.map(expr, fn) == ast.Literal(3)
        assert seen == [expr]

    def test_case_pairs_stay_pairs(self):
        (stmt,) = parse_statements("SELECT CASE WHEN a = 1 THEN 'x' END FROM T")
        case = stmt.select_items[0].expr
        mapped = ast.map(
            case, lambda n: ast.Literal(2) if n == ast.Literal(1) else None
        )
        assert mapped.whens == [
            (ast.BinaryOp("=", ast.ColumnRef(None, "a"), ast.Literal(2)), ast.Literal("x"))
        ]
        assert isinstance(mapped.whens[0], tuple) and mapped.else_result is None


class TestQueries:
    def test_every_nested_query_parents_first(self):
        (stmt,) = parse_statements(
            "SELECT (SELECT 1 FROM A) FROM (SELECT x FROM B) AS d "
            "JOIN C ON EXISTS (SELECT * FROM D) "
            "WHERE d.x IN (SELECT y FROM E UNION SELECT z FROM F) "
            "ORDER BY (SELECT 2 FROM G)"
        )
        queries = ast.queries(stmt)
        assert queries[0] is stmt
        found = [
            ref.name
            for q in queries
            if isinstance(q, ast.SelectStmt)
            for ref in ast.table_refs(q)
            if isinstance(ref, ast.NamedTable)
        ]
        assert found[0] == "C"  # the outer block's own FROM comes first
        assert sorted(found) == ["A", "B", "C", "D", "E", "F", "G"]

    def test_dml_statements(self):
        (stmt,) = parse_statements(
            "UPDATE T SET v = (SELECT MAX(w) FROM A) WHERE k IN (SELECT k FROM B)"
        )
        queries = ast.queries(stmt)
        assert queries[0] is stmt
        assert [q.from_tables[0].name for q in queries[1:]] == ["A", "B"]


class TestGroupedSubqueryOperands:
    """The operand of an IN subquery in a grouped query is re-expressed over
    the grouping input like any other expression."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE T1 (a INTEGER PRIMARY KEY, g INTEGER)")
        db.execute("CREATE TABLE T2 (b INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO T1 VALUES (1, 1), (2, 1), (3, 2)")
        db.execute("INSERT INTO T2 VALUES (2)")
        return db

    def test_grouped_operand_in_select_list(self, db):
        rows = db.execute(
            "SELECT g, g IN (SELECT b FROM T2) FROM T1 GROUP BY g ORDER BY g"
        ).rows
        assert rows == [(1, False), (2, True)]

    def test_grouped_operand_in_having(self, db):
        rows = db.execute(
            "SELECT g, COUNT(*) FROM T1 GROUP BY g HAVING g IN (SELECT b FROM T2)"
        ).rows
        assert rows == [(2, 1)]

    def test_ungrouped_operand_rejected(self, db):
        with pytest.raises(TypeCheckError):
            db.execute("SELECT g, a IN (SELECT b FROM T2) FROM T1 GROUP BY g")
