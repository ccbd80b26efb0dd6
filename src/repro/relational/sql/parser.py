"""Recursive-descent parser for the SQL dialect.

Grammar summary::

    statement   := select | insert | update | delete | create_table
                 | create_index | create_view | drop | analyze
                 | BEGIN | COMMIT | ROLLBACK
    select      := select_core (set_op select_core)* [ORDER BY ...] [LIMIT ...]
    select_core := SELECT [DISTINCT] items FROM table_refs [WHERE expr]
                   [GROUP BY exprs] [HAVING expr]
    expr        := precedence ladder: OR < AND < NOT < comparison/IN/LIKE/
                   BETWEEN/IS < add < mul < unary < primary

The parser is a class so the XNF parser (:class:`repro.xnf.lang.XNFParser`)
can subclass it and reuse the expression and query machinery while adding
the OUT OF / RELATE / TAKE constructs on top.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.relational.sql import ast
from repro.relational.sql.lexer import EOF, IDENT, NUMBER, OP, STRING, Token, tokenize

#: words that may never be used as implicit aliases
RESERVED = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS ON JOIN INNER
    EXPLAIN
    LEFT RIGHT FULL OUTER CROSS UNION INTERSECT EXCEPT AND OR NOT IN EXISTS
    BETWEEN IS NULL LIKE CASE WHEN THEN ELSE END DISTINCT ALL INSERT INTO
    VALUES UPDATE SET DELETE CREATE TABLE INDEX VIEW DROP IF ASC DESC USING
    PRIMARY KEY REFERENCES UNIQUE BEGIN COMMIT ROLLBACK ANALYZE TRUE FALSE
    OUT TAKE RELATE SUCH WITH
    """.split()
)

_SCALAR_FUNCS = frozenset(
    {"ABS", "LOWER", "UPPER", "LENGTH", "COALESCE", "NULLIF", "ROUND", "MOD", "SUBSTR"}
)


class SQLParser:
    """Token-stream parser; one instance per statement batch."""

    hyphen_idents = False

    def __init__(self, source: str):
        self.source = source
        self.toks = tokenize(source, hyphen_idents=self.hyphen_idents)
        self.pos = 0
        self._param_count = 0  # ordinal for ? placeholders, per batch
        #: when a dict: each literal node parsed from a NUMBER or STRING
        #: token, by id, with that token's position (``~position`` when a
        #: minus sign was folded into the value an odd number of times)
        self.literal_tokens: Optional[Dict[int, Tuple[ast.Literal, int]]] = None

    # -- token helpers -------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        pos = min(self.pos + offset, len(self.toks) - 1)
        return self.toks[pos]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == IDENT and tok.upper() in words

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind == IDENT and tok.upper() == word:
            return self.advance()
        raise ParseError(f"expected {word}, found {tok.text!r}", tok.line, tok.column)

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == OP and tok.text in ops

    def accept_op(self, *ops: str) -> bool:
        if self.at_op(*ops):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind == OP and tok.text == op:
            return self.advance()
        raise ParseError(f"expected {op!r}, found {tok.text!r}", tok.line, tok.column)

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind == IDENT and tok.upper() not in RESERVED:
            self.advance()
            return tok.text
        raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.column)

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(f"{message}, found {tok.text!r}", tok.line, tok.column)

    # -- statements ----------------------------------------------------------

    def parse_statements(self) -> List[ast.Statement]:
        statements: List[ast.Statement] = []
        while self.peek().kind != EOF:
            if self.accept_op(";"):
                continue
            statements.append(self.parse_statement())
            if self.peek().kind != EOF:
                self.expect_op(";")
        return statements

    def parse_statement(self) -> ast.Statement:
        if self.at_keyword("SELECT") or self.at_op("("):
            return self.parse_query()
        if self.at_keyword("INSERT"):
            return self.parse_insert()
        if self.at_keyword("UPDATE"):
            return self.parse_update()
        if self.at_keyword("DELETE"):
            return self.parse_delete()
        if self.at_keyword("CREATE"):
            return self.parse_create()
        if self.at_keyword("DROP"):
            return self.parse_drop()
        if self.accept_keyword("ANALYZE"):
            table = None
            if self.peek().kind == IDENT:
                table = self.expect_ident("table name")
            return ast.AnalyzeStmt(table)
        if self.accept_keyword("EXPLAIN"):
            analyze = bool(self.accept_keyword("ANALYZE"))
            return ast.ExplainStmt(self.parse_query(), analyze=analyze)
        if self.accept_keyword("BEGIN"):
            self.accept_keyword("TRANSACTION")
            return ast.BeginStmt()
        if self.accept_keyword("COMMIT"):
            return ast.CommitStmt()
        if self.accept_keyword("ROLLBACK"):
            return ast.RollbackStmt()
        raise self.error("expected a statement")

    # -- queries --------------------------------------------------------------

    def parse_query(self) -> ast.Query:
        """Parse a full query: set ops, then trailing ORDER BY / LIMIT."""
        query = self._parse_query_term()
        while self.at_keyword("UNION", "INTERSECT", "EXCEPT"):
            op = self.advance().upper()
            all_flag = self.accept_keyword("ALL")
            if not all_flag:
                self.accept_keyword("DISTINCT")
            right = self._parse_query_term()
            query = ast.SetOpStmt(op, all_flag, query, right)
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit_offset()
        if order_by or limit is not None or offset is not None:
            query.order_by = order_by
            query.limit = limit
            query.offset = offset
        return query

    def _parse_query_term(self) -> ast.Query:
        if self.at_op("("):
            # Either a parenthesised query or a parse error surfaced below.
            save = self.pos
            self.advance()
            if self.at_keyword("SELECT") or self.at_op("("):
                inner = self.parse_query()
                self.expect_op(")")
                return inner
            self.pos = save
        return self.parse_select_core()

    def parse_select_core(self) -> ast.SelectStmt:
        self.expect_keyword("SELECT")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        else:
            self.accept_keyword("ALL")
        items = [self._parse_select_item()]
        while self.accept_op(","):
            items.append(self._parse_select_item())
        from_tables: List[ast.TableRef] = []
        if self.accept_keyword("FROM"):
            from_tables.append(self._parse_table_ref())
            while self.accept_op(","):
                from_tables.append(self._parse_table_ref())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: List[ast.Expr] = []
        having = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()
        return ast.SelectStmt(
            select_items=items,
            from_tables=from_tables,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        if self.at_op("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        # t.* form
        if (
            self.peek().kind == IDENT
            and self.peek(1).kind == OP
            and self.peek(1).text == "."
            and self.peek(2).kind == OP
            and self.peek(2).text == "*"
        ):
            table = self.advance().text
            self.advance()  # .
            self.advance()  # *
            return ast.SelectItem(ast.Star(table))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif self.peek().kind == IDENT and self.peek().upper() not in RESERVED:
            alias = self.advance().text
        return ast.SelectItem(expr, alias)

    def _parse_order_by(self) -> List[ast.OrderItem]:
        items: List[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expr = self.parse_expr()
                ascending = True
                if self.accept_keyword("DESC"):
                    ascending = False
                else:
                    self.accept_keyword("ASC")
                items.append(ast.OrderItem(expr, ascending))
                if not self.accept_op(","):
                    break
        return items

    def _parse_limit_offset(self) -> Tuple[Optional[int], Optional[int]]:
        limit = offset = None
        if self.accept_keyword("LIMIT"):
            limit = self._parse_int("LIMIT")
        if self.accept_keyword("OFFSET"):
            offset = self._parse_int("OFFSET")
        return limit, offset

    def _parse_int(self, clause: str) -> int:
        tok = self.peek()
        if tok.kind != NUMBER or "." in tok.text:
            raise self.error(f"{clause} expects an integer")
        self.advance()
        return int(tok.text)

    # -- table references --------------------------------------------------------

    def _parse_table_ref(self) -> ast.TableRef:
        ref = self._parse_table_primary()
        while True:
            if self.at_keyword("JOIN", "INNER"):
                self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                right = self._parse_table_primary()
                self.expect_keyword("ON")
                condition = self.parse_expr()
                ref = ast.Join("INNER", ref, right, condition)
            elif self.at_keyword("LEFT"):
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                right = self._parse_table_primary()
                self.expect_keyword("ON")
                condition = self.parse_expr()
                ref = ast.Join("LEFT", ref, right, condition)
            elif self.at_keyword("CROSS"):
                self.advance()
                self.expect_keyword("JOIN")
                right = self._parse_table_primary()
                ref = ast.Join("INNER", ref, right, None)
            else:
                return ref

    def _parse_table_primary(self) -> ast.TableRef:
        if self.at_op("("):
            self.advance()
            if self.at_keyword("SELECT") or self.at_op("("):
                subquery = self.parse_query()
                self.expect_op(")")
                self.accept_keyword("AS")
                alias = self.expect_ident("derived-table alias")
                return ast.DerivedTable(subquery, alias)
            ref = self._parse_table_ref()
            self.expect_op(")")
            return ref
        name = self.expect_ident("table name")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif self.peek().kind == IDENT and self.peek().upper() not in RESERVED:
            alias = self.advance().text
        return ast.NamedTable(name, alias)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            right = self._parse_and()
            left = ast.BinaryOp("OR", left, right)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            right = self._parse_not()
            left = ast.BinaryOp("AND", left, right)
        return left

    def _parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        while True:
            if self.at_op("=", "<>", "!=", "<", "<=", ">", ">="):
                op = self.advance().text
                if op == "!=":
                    op = "<>"
                right = self._parse_additive()
                left = ast.BinaryOp(op, left, right)
                continue
            if self.at_keyword("IS"):
                self.advance()
                negated = self.accept_keyword("NOT")
                self.expect_keyword("NULL")
                left = ast.IsNull(left, negated)
                continue
            negated = False
            save = self.pos
            if self.at_keyword("NOT"):
                self.advance()
                if self.at_keyword("IN", "BETWEEN", "LIKE"):
                    negated = True
                else:
                    self.pos = save
                    return left
            if self.accept_keyword("IN"):
                left = self._parse_in(left, negated)
                continue
            if self.accept_keyword("BETWEEN"):
                low = self._parse_additive()
                self.expect_keyword("AND")
                high = self._parse_additive()
                left = ast.Between(left, low, high, negated)
                continue
            if self.accept_keyword("LIKE"):
                pattern = self._parse_additive()
                node: ast.Expr = ast.BinaryOp("LIKE", left, pattern)
                if negated:
                    node = ast.UnaryOp("NOT", node)
                left = node
                continue
            return left

    def _parse_in(self, operand: ast.Expr, negated: bool) -> ast.Expr:
        self.expect_op("(")
        if self.at_keyword("SELECT") or self.at_op("("):
            subquery = self.parse_query()
            self.expect_op(")")
            return ast.InSubquery(operand, subquery, negated)
        items = [self.parse_expr()]
        while self.accept_op(","):
            items.append(self.parse_expr())
        self.expect_op(")")
        return ast.InList(operand, items, negated)

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self.at_op("+", "-", "||"):
            op = self.advance().text
            right = self._parse_multiplicative()
            left = ast.BinaryOp(op, left, right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self.at_op("*", "/", "%"):
            op = self.advance().text
            right = self._parse_unary()
            left = ast.BinaryOp(op, left, right)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self.at_op("-"):
            self.advance()
            operand = self._parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return self._literal(-operand.value, operand)
            return ast.UnaryOp("-", operand)
        if self.at_op("+"):
            self.advance()
            return self._parse_unary()
        return self.parse_primary()

    def _literal(self, value: Any, folded: Optional[ast.Literal] = None) -> ast.Literal:
        """A literal of the token just read, or of *folded*'s token."""
        node = ast.Literal(value)
        tokens = self.literal_tokens
        if tokens is not None and (folded is None or id(folded) in tokens):
            tokens[id(node)] = (node, self.pos - 1 if folded is None else ~tokens[id(folded)][1])
        return node

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == NUMBER:
            self.advance()
            if "." in tok.text or "e" in tok.text.lower():
                return self._literal(float(tok.text))
            return self._literal(int(tok.text))
        if tok.kind == STRING:
            self.advance()
            return self._literal(tok.text)
        if tok.kind == OP and tok.text == "?":
            self.advance()
            param = ast.Parameter(self._param_count)
            self._param_count += 1
            return param
        if tok.kind == OP and tok.text == "(":
            self.advance()
            if self.at_keyword("SELECT") or (
                self.at_op("(") and self._lookahead_is_query()
            ):
                subquery = self.parse_query()
                self.expect_op(")")
                return ast.ScalarSubquery(subquery)
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if tok.kind == IDENT:
            upper = tok.upper()
            if upper == "NULL":
                self.advance()
                return ast.Literal(None)
            if upper == "TRUE":
                self.advance()
                return ast.Literal(True)
            if upper == "FALSE":
                self.advance()
                return ast.Literal(False)
            if upper == "EXISTS":
                self.advance()
                self.expect_op("(")
                subquery = self.parse_query()
                self.expect_op(")")
                return ast.Exists(subquery)
            if upper == "CASE":
                return self._parse_case()
            if upper == "CAST":
                return self._parse_cast()
            # function call?
            if self.peek(1).kind == OP and self.peek(1).text == "(":
                if upper in ast.FuncCall.AGGREGATES or upper in _SCALAR_FUNCS:
                    return self._parse_func_call()
            return self._parse_column_ref()
        raise self.error("expected an expression")

    def _lookahead_is_query(self) -> bool:
        """After '(' we may see '((...) UNION ...)': scan for SELECT."""
        depth = 0
        pos = self.pos
        while pos < len(self.toks):
            tok = self.toks[pos]
            if tok.kind == OP and tok.text == "(":
                depth += 1
            elif tok.kind == OP and tok.text == ")":
                if depth == 0:
                    return False
                depth -= 1
            elif tok.kind == IDENT and tok.upper() == "SELECT":
                return True
            elif tok.kind != OP:
                return False
            pos += 1
        return False

    def _parse_func_call(self) -> ast.Expr:
        name = self.advance().upper()
        self.expect_op("(")
        if self.at_op("*"):
            self.advance()
            self.expect_op(")")
            return ast.FuncCall(name, [], star=True)
        distinct = self.accept_keyword("DISTINCT")
        args: List[ast.Expr] = []
        if not self.at_op(")"):
            args.append(self.parse_expr())
            while self.accept_op(","):
                args.append(self.parse_expr())
        self.expect_op(")")
        return ast.FuncCall(name, args, distinct=distinct)

    def _parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        operand: Optional[ast.Expr] = None
        if not self.at_keyword("WHEN"):
            operand = self.parse_expr()
        whens: List[Tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            if operand is not None:
                cond = ast.BinaryOp("=", operand, cond)
            self.expect_keyword("THEN")
            result = self.parse_expr()
            whens.append((cond, result))
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        else_result = self.parse_expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        return ast.Case(whens, else_result)

    def _parse_cast(self) -> ast.Expr:
        """CAST(expr AS TYPE) — evaluated as a scalar function."""
        self.expect_keyword("CAST")
        self.expect_op("(")
        expr = self.parse_expr()
        self.expect_keyword("AS")
        type_name = self.expect_ident("type name").upper()
        if self.accept_op("("):
            self._parse_int("type size")
            self.expect_op(")")
        self.expect_op(")")
        return ast.FuncCall("CAST_" + type_name, [expr])

    def _parse_column_ref(self) -> ast.Expr:
        first = self.expect_ident("column name")
        if self.at_op(".") and self.peek(1).kind == IDENT:
            self.advance()
            second = self.expect_ident("column name")
            return ast.ColumnRef(first, second)
        return ast.ColumnRef(None, first)

    # -- DML --------------------------------------------------------------------

    def parse_insert(self) -> ast.InsertStmt:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident("table name")
        columns: Optional[List[str]] = None
        if self.at_op("(") :
            self.advance()
            columns = [self.expect_ident("column name")]
            while self.accept_op(","):
                columns.append(self.expect_ident("column name"))
            self.expect_op(")")
        if self.accept_keyword("VALUES"):
            rows: List[List[ast.Expr]] = []
            while True:
                self.expect_op("(")
                row = [self.parse_expr()]
                while self.accept_op(","):
                    row.append(self.parse_expr())
                self.expect_op(")")
                rows.append(row)
                if not self.accept_op(","):
                    break
            return ast.InsertStmt(table, columns, rows=rows)
        select = self.parse_query()
        return ast.InsertStmt(table, columns, select=select)

    def parse_update(self) -> ast.UpdateStmt:
        self.expect_keyword("UPDATE")
        table = self.expect_ident("table name")
        self.expect_keyword("SET")
        assignments: List[Tuple[str, ast.Expr]] = []
        while True:
            column = self.expect_ident("column name")
            self.expect_op("=")
            assignments.append((column, self.parse_expr()))
            if not self.accept_op(","):
                break
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.UpdateStmt(table, assignments, where)

    def parse_delete(self) -> ast.DeleteStmt:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident("table name")
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.DeleteStmt(table, where)

    # -- DDL --------------------------------------------------------------------

    def parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self._parse_create_table()
        unique = self.accept_keyword("UNIQUE")
        if self.accept_keyword("INDEX"):
            return self._parse_create_index(unique)
        if unique:
            raise self.error("expected INDEX after UNIQUE")
        if self.accept_keyword("VIEW"):
            return self._parse_create_view()
        raise self.error("expected TABLE, INDEX, or VIEW")

    def _parse_create_table(self) -> ast.CreateTableStmt:
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_ident("table name")
        self.expect_op("(")
        columns = [self._parse_column_def()]
        while self.accept_op(","):
            columns.append(self._parse_column_def())
        self.expect_op(")")
        return ast.CreateTableStmt(name, columns, if_not_exists)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_ident("column name")
        type_name = self.expect_ident("type name")
        size = None
        if self.accept_op("("):
            size = self._parse_int("type size")
            self.expect_op(")")
        column = ast.ColumnDef(name, type_name, size)
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                column.primary_key = True
                column.not_null = True
            elif self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                column.not_null = True
            elif self.accept_keyword("REFERENCES"):
                ref_table = self.expect_ident("referenced table")
                self.expect_op("(")
                ref_column = self.expect_ident("referenced column")
                self.expect_op(")")
                column.references = (ref_table.upper(), ref_column)
            else:
                return column

    def _parse_create_index(self, unique: bool) -> ast.CreateIndexStmt:
        name = self.expect_ident("index name")
        self.expect_keyword("ON")
        table = self.expect_ident("table name")
        self.expect_op("(")
        columns = [self.expect_ident("column name")]
        while self.accept_op(","):
            columns.append(self.expect_ident("column name"))
        self.expect_op(")")
        kind = "btree"
        if self.accept_keyword("USING"):
            kind_name = self.expect_ident("index kind").upper()
            if kind_name not in ("BTREE", "HASH"):
                raise self.error("index kind must be BTREE or HASH")
            kind = kind_name.lower()
        return ast.CreateIndexStmt(name, table, columns, unique, kind)

    def _parse_create_view(self) -> ast.CreateViewStmt:
        name = self.expect_ident("view name")
        self.expect_keyword("AS")
        start = self.peek()
        query = self.parse_query()
        sql_text = self.source[start.column - 1 :] if start.line == 1 else ""
        return ast.CreateViewStmt(name, query, sql_text or query.to_sql())

    def parse_drop(self) -> ast.DropStmt:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            kind = "TABLE"
        elif self.accept_keyword("VIEW"):
            kind = "VIEW"
        elif self.accept_keyword("INDEX"):
            kind = "INDEX"
        else:
            raise self.error("expected TABLE, VIEW, or INDEX")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        name = self.expect_ident("name")
        table = None
        if kind == "INDEX" and self.accept_keyword("ON"):
            table = self.expect_ident("table name")
        return ast.DropStmt(kind, name, if_exists, table)


def parse_sql(source: str) -> ast.Statement:
    """Parse exactly one statement (a trailing semicolon is allowed)."""
    parser = SQLParser(source)
    statements = parser.parse_statements()
    if len(statements) != 1:
        raise ParseError(f"expected one statement, found {len(statements)}")
    return statements[0]


def parse_statements(
    source: str, literal_tokens: Optional[Dict[int, Tuple[ast.Literal, int]]] = None
) -> List[ast.Statement]:
    """Parse a semicolon-separated batch of statements; *literal_tokens*,
    if given, receives each literal node parsed from a literal token, with
    its position (see :attr:`SQLParser.literal_tokens`)."""
    parser = SQLParser(source)
    parser.literal_tokens = literal_tokens
    return parser.parse_statements()
