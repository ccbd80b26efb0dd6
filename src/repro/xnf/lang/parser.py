"""Parser for the XNF language.

Subclasses the SQL parser, so everything inside component queries and
predicates is ordinary SQL; on top it adds

* the ``OUT OF … TAKE`` constructor with node, relationship and view-ref
  components,
* ``SUCH THAT`` node and edge restrictions,
* path expressions (``d->employment->(Xemp e WHERE …)->Xproj``) as primary
  expressions, including ``EXISTS <path>`` and role-qualified steps
  (``manages[reports_to]``),
* CO-level ``DELETE`` / ``UPDATE`` tails and ``CREATE VIEW … AS OUT OF …``.

Hyphenated identifiers (``ALL-DEPS``) are enabled, matching the paper's
notation; inside XNF text write subtraction with surrounding spaces.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.relational.sql import ast as sql_ast
from repro.relational.sql.lexer import EOF, IDENT, OP
from repro.relational.sql.parser import RESERVED, SQLParser
from repro.xnf.lang import xast


class XNFParser(SQLParser):
    """Recursive-descent parser for XNF statements."""

    hyphen_idents = True

    # -- statements -------------------------------------------------------------

    def parse_xnf_statements(self) -> List[xast.XNFStatement]:
        statements: List[xast.XNFStatement] = []
        while self.peek().kind != EOF:
            if self.accept_op(";"):
                continue
            statements.append(self.parse_xnf_statement())
            if self.peek().kind != EOF:
                self.expect_op(";")
        return statements

    def parse_xnf_statement(self) -> xast.XNFStatement:
        if self.at_keyword("CREATE"):
            self.advance()
            self.expect_keyword("VIEW")
            name = self.expect_ident("view name")
            self.expect_keyword("AS")
            query = self.parse_xnf_query()
            return xast.CreateXNFView(name, query)
        if self.at_keyword("DROP"):
            self.advance()
            self.expect_keyword("VIEW")
            if_exists = False
            if self.accept_keyword("IF"):
                self.expect_keyword("EXISTS")
                if_exists = True
            name = self.expect_ident("view name")
            return xast.DropXNFView(name, if_exists)
        if self.at_keyword("OUT"):
            return self.parse_xnf_query()
        raise self.error("expected OUT OF, CREATE VIEW, or DROP VIEW")

    # -- the CO constructor -------------------------------------------------------

    def parse_xnf_query(self) -> xast.XNFQuery:
        self.expect_keyword("OUT")
        self.expect_keyword("OF")
        components = [self._parse_component()]
        while self.accept_op(","):
            components.append(self._parse_component())
        restrictions: List[xast.Restriction] = []
        if self.accept_keyword("WHERE"):
            restrictions.append(self._parse_restriction())
            while self._at_restriction_separator():
                self.expect_keyword("AND")
                restrictions.append(self._parse_restriction())
        return self._parse_tail(components, restrictions)

    def _parse_tail(
        self,
        components: List[xast.Component],
        restrictions: List[xast.Restriction],
    ) -> xast.XNFQuery:
        if self.accept_keyword("TAKE"):
            if self.accept_op("*"):
                return xast.XNFQuery(components, restrictions, xast.TakeAll())
            items = [self._parse_take_item()]
            while self.accept_op(","):
                items.append(self._parse_take_item())
            return xast.XNFQuery(components, restrictions, items)
        if self.accept_keyword("DELETE"):
            self.accept_op("*")
            return xast.XNFQuery(components, restrictions, None, action="DELETE")
        if self.accept_keyword("UPDATE"):
            node = self.expect_ident("node name")
            self.expect_keyword("SET")
            assignments: List[Tuple[str, sql_ast.Expr]] = []
            while True:
                column = self.expect_ident("column name")
                self.expect_op("=")
                assignments.append((column, self.parse_expr()))
                if not self.accept_op(","):
                    break
            return xast.XNFQuery(
                components,
                restrictions,
                None,
                action="UPDATE",
                update_node=node,
                update_assignments=assignments,
            )
        raise self.error("expected TAKE, DELETE, or UPDATE")

    def _parse_take_item(self) -> xast.TakeItem:
        name = self.expect_ident("component name")
        columns: Optional[List[str]] = None
        if self.accept_op("("):
            if self.accept_op("*"):
                columns = ["*"]
            else:
                columns = [self.expect_ident("column name")]
                while self.accept_op(","):
                    columns.append(self.expect_ident("column name"))
            self.expect_op(")")
        return xast.TakeItem(name, columns)

    # -- components -----------------------------------------------------------------

    def _parse_component(self) -> xast.Component:
        name = self.expect_ident("component name")
        if not self.accept_keyword("AS"):
            return xast.ViewRef(name)
        if self.accept_op("("):
            if self.at_keyword("RELATE"):
                component = self._parse_relate(name)
                self.expect_op(")")
                return component
            query = self.parse_query()
            self.expect_op(")")
            return xast.NodeDef(name, query=query)
        table = self.expect_ident("table name")
        return xast.NodeDef(name, table=table)

    def _parse_relate(self, name: str) -> xast.RelationshipDef:
        self.expect_keyword("RELATE")
        parent = self.expect_ident("parent node")
        parent_role = self._maybe_role()
        self.expect_op(",")
        child = self.expect_ident("child node")
        child_role = self._maybe_role()
        extra_partners: List[Tuple[str, Optional[str]]] = []
        while self.accept_op(","):
            partner = self.expect_ident("child node")
            extra_partners.append((partner, self._maybe_role()))
        attributes: List[Tuple[str, sql_ast.Expr]] = []
        using: List[xast.UsingTable] = []
        predicate: Optional[sql_ast.Expr] = None
        if self.accept_keyword("WITH"):
            self.expect_keyword("ATTRIBUTES")
            attributes.append(self._parse_attribute())
            while self.accept_op(","):
                attributes.append(self._parse_attribute())
        if self.accept_keyword("USING"):
            using.append(self._parse_using_table())
            while self.accept_op(","):
                using.append(self._parse_using_table())
        if self.accept_keyword("WHERE"):
            predicate = self.parse_expr()
        return xast.RelationshipDef(
            name,
            parent,
            child,
            predicate,
            attributes,
            using,
            parent_role,
            child_role,
            extra_partners,
        )

    def _maybe_role(self) -> Optional[str]:
        tok = self.peek()
        if tok.kind == IDENT and tok.upper() not in RESERVED:
            # e.g. "RELATE Xemp manager, Xemp report" — role names follow
            # the partner table directly.
            nxt = self.peek(1)
            if nxt.kind == OP and nxt.text in (",", ")"):
                return self.advance().text
            if nxt.kind == IDENT and nxt.upper() in ("WITH", "USING", "WHERE"):
                return self.advance().text
        return None

    def _parse_attribute(self) -> Tuple[str, sql_ast.Expr]:
        expr = self.parse_expr()
        name = None
        if self.accept_keyword("AS"):
            name = self.expect_ident("attribute name")
        elif isinstance(expr, sql_ast.ColumnRef):
            name = expr.column
        if name is None:
            raise self.error("relationship attribute needs AS <name>")
        return name, expr

    def _parse_using_table(self) -> xast.UsingTable:
        table = self.expect_ident("table name")
        alias = table
        tok = self.peek()
        if tok.kind == IDENT and tok.upper() not in RESERVED:
            alias = self.advance().text
        return xast.UsingTable(table, alias)

    # -- restrictions -------------------------------------------------------------

    def _parse_restriction(self) -> xast.Restriction:
        name = self.expect_ident("node or relationship name")
        if self.accept_op("("):
            parent_alias = self.expect_ident("parent alias")
            self.expect_op(",")
            child_alias = self.expect_ident("child alias")
            self.expect_op(")")
            self._expect_such_that()
            predicate = self._parse_restriction_predicate()
            return xast.EdgeRestriction(name, parent_alias, child_alias, predicate)
        alias = None
        tok = self.peek()
        if tok.kind == IDENT and tok.upper() not in ("SUCH",):
            alias = self.advance().text
        self._expect_such_that()
        predicate = self._parse_restriction_predicate()
        return xast.NodeRestriction(name, alias, predicate)

    def _expect_such_that(self) -> None:
        self.expect_keyword("SUCH")
        self.expect_keyword("THAT")

    def _parse_restriction_predicate(self) -> sql_ast.Expr:
        """Parse a predicate, stopping before ``AND <next restriction>``."""
        left = self._parse_not()
        while True:
            if self.at_keyword("OR"):
                self.advance()
                right = self._parse_restriction_predicate()
                left = sql_ast.BinaryOp("OR", left, right)
                continue
            if self.at_keyword("AND") and not self._restriction_follows(1):
                self.advance()
                right = self._parse_not()
                left = sql_ast.BinaryOp("AND", left, right)
                continue
            return left

    def _at_restriction_separator(self) -> bool:
        return self.at_keyword("AND") and self._restriction_follows(1)

    def _restriction_follows(self, offset: int) -> bool:
        """Do the tokens at *offset* look like ``name [alias] SUCH THAT`` or
        ``name (a, b) SUCH THAT``?"""
        tok = self.peek(offset)
        if tok.kind != IDENT:
            return False
        nxt = self.peek(offset + 1)
        if nxt.kind == IDENT and nxt.upper() == "SUCH":
            return True
        if nxt.kind == IDENT and self.peek(offset + 2).kind == IDENT and self.peek(
            offset + 2
        ).upper() == "SUCH":
            return True
        if nxt.kind == OP and nxt.text == "(":
            # name ( a , b ) SUCH
            if (
                self.peek(offset + 2).kind == IDENT
                and self.peek(offset + 3).kind == OP
                and self.peek(offset + 3).text == ","
                and self.peek(offset + 4).kind == IDENT
                and self.peek(offset + 5).kind == OP
                and self.peek(offset + 5).text == ")"
                and self.peek(offset + 6).kind == IDENT
                and self.peek(offset + 6).upper() == "SUCH"
            ):
                return True
        return False

    # -- path expressions inside predicates ----------------------------------------

    def parse_primary(self) -> sql_ast.Expr:
        tok = self.peek()
        if tok.kind == IDENT and tok.upper() == "EXISTS":
            nxt = self.peek(1)
            if nxt.kind == IDENT:  # EXISTS <path>, not EXISTS (subquery)
                self.advance()
                path = self._parse_path_expr()
                return sql_ast.FuncCall("EXISTS", [path])
        if (
            tok.kind == IDENT
            and tok.upper() not in RESERVED
            and self.peek(1).kind == OP
            and self.peek(1).text == "->"
        ):
            return self._parse_path_expr()
        return super().parse_primary()

    def _parse_path_expr(self) -> xast.PathExpr:
        start = self.expect_ident("path start")
        steps: List[xast.PathStep] = []
        while self.accept_op("->"):
            steps.append(self._parse_path_step())
        if not steps:
            raise self.error("path expression needs at least one -> step")
        return xast.PathExpr(start, steps)

    def _parse_path_step(self) -> xast.PathStep:
        if self.accept_op("("):
            name = self.expect_ident("node name")
            alias = None
            tok = self.peek()
            if tok.kind == IDENT and tok.upper() != "WHERE":
                alias = self.advance().text
            self.expect_keyword("WHERE")
            predicate = self.parse_expr()
            self.expect_op(")")
            return xast.PathStep(name, alias, predicate)
        name = self.expect_ident("relationship or node name")
        role = None
        if self.accept_op("["):
            role = self.expect_ident("role name")
            self.expect_op("]")
        return xast.PathStep(name, role=role)


def parse_xnf(source: str) -> xast.XNFStatement:
    """Parse exactly one XNF statement."""
    parser = XNFParser(source)
    statements = parser.parse_xnf_statements()
    if len(statements) != 1:
        raise ParseError(f"expected one XNF statement, found {len(statements)}")
    return statements[0]


def parse_xnf_statements(
    source: str, literal_tokens: Optional[Dict[int, Tuple[Any, int]]] = None
) -> List[xast.XNFStatement]:
    """Parse *source*; *literal_tokens*, if given, receives each literal
    node parsed from a literal token, with its position (see
    :attr:`SQLParser.literal_tokens`)."""
    parser = XNFParser(source)
    parser.literal_tokens = literal_tokens
    return parser.parse_xnf_statements()
