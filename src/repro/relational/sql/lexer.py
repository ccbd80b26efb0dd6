"""Tokenizer shared by the SQL and XNF parsers.

Produces a flat token stream; keywords are not distinguished from
identifiers here (parsers match on upper-cased identifier text), which keeps
the lexer reusable for XNF's extra keywords (OUT, RELATE, TAKE, ...).
The only XNF-specific lexeme is the ``->`` path operator, emitted as one
token so path expressions parse unambiguously.

Scanning is one compiled master regex per mode (plain SQL, and XNF with
hyphenated names).  Each match is optional whitespace and comments followed
by one token, an error, or the end of the input, so the matches tile the
source.  The plan cache scans statement text with the same pattern
(:data:`SQL_TOKENS`) to recognise a statement it has seen before.  A token
keeps only its offset; line and column are derived when asked for.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import ParseError

#: token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
EOF = "EOF"

_SKIP = r"(?:[ \t\r\n]+|--[^\n]*|/\*[\s\S]*?\*/)*"
_NAME = r"[^\W\d][\w$#]*"
# digits, then at most one '.' (not the first of '..') or an exponent, then
# digits and further exponents
_EXPONENT = r"[eE](?=[+-]?\d)[+-]?"
_NUMBER = rf"(?=\.?\d)\d*(?:(?:\.(?!\.)|{_EXPONENT})(?:\d|{_EXPONENT})*)?"


def _master(name: str) -> "re.Pattern[str]":
    """Groups: 1 name (bare or "quoted"), 2 literal = 3 number | 4 string,
    5 operator, 6 error (an unterminated string, quoted name or comment, or
    a stray character); no group = end of input."""
    return re.compile(
        _SKIP
        + rf"""(?:({name}|"[^"]*")"""
        + rf"""|(({_NUMBER})|('[^']*(?:''[^']*)*'(?!')))"""
        + r"""|(->|<=|>=|<>|!=|\|\||/(?!\*)|[-+*%(),.;=<>\[\]?])"""
        + r"""|(/\*|[^ \t\r\n])|\Z)"""
    )


#: plain SQL: ``a-b`` is a subtraction
SQL_TOKENS = _master(_NAME)
#: XNF text: ``ALL-DEPS``-style names (the paper's view names)
XNF_TOKENS = _master(rf"{_NAME}(?:-\w[\w$#]*)*")

_ERRORS = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "/*": "unterminated block comment",
}


def _line(source: str, pos: int) -> int:
    return source.count("\n", 0, pos) + 1


def _column(source: str, pos: int) -> int:
    return pos - source.rfind("\n", 0, pos)


class Token(NamedTuple):
    kind: str
    text: str
    pos: int
    source: str

    @property
    def line(self) -> int:
        return _line(self.source, self.pos)

    @property
    def column(self) -> int:
        return _column(self.source, self.pos)

    def upper(self) -> str:
        return self.text.upper()


def tokenize(source: str, hyphen_idents: bool = False) -> List[Token]:
    """Tokenize *source* fully; the last token is EOF.

    *hyphen_idents* allows ``ALL-DEPS``-style names.  The XNF parser turns
    this on; plain SQL keeps it off so ``a-b`` stays a subtraction.  Inside
    XNF text, write subtraction with spaces (``a - b``).
    """
    tokens: List[Token] = []
    append = tokens.append
    for match in (XNF_TOKENS if hyphen_idents else SQL_TOKENS).finditer(source):
        name, literal, number, string, op, error = match.groups()
        if name is not None:
            text = name[1:-1] if name[0] == '"' else name
            append(Token(IDENT, text, match.start(1), source))
        elif number is not None:
            append(Token(NUMBER, number, match.start(2), source))
        elif string is not None:
            append(Token(STRING, string[1:-1].replace("''", "'"), match.start(2), source))
        elif op is not None:
            append(Token(OP, op, match.start(5), source))
        elif error is not None:
            at = match.start(6)
            message = _ERRORS.get(error) or f"unexpected character {error!r}"
            raise ParseError(message, _line(source, at), _column(source, at))
        else:
            append(Token(EOF, "", match.end(), source))
            break
    return tokens
