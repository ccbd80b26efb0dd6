"""The lexer, pinned token by token.

The expected streams and errors below were recorded from the original
per-character lexer; the master-regex lexer must reproduce them exactly:
kinds, texts, line and column of every token, and the message and
position of every error.  (One known difference is not in the corpus:
Unicode digits that are not decimal, such as superscripts, now lex as
name characters instead of digits.)
"""

import pytest

from repro.errors import ParseError
from repro.relational.sql.lexer import tokenize

#: (source, hyphen_idents, expected): expected is the token list as
#: (kind, text, line, column), or ("error", message, line, column)
CORPUS = [
    (
        "SELECT a, b\n  FROM t\n WHERE a = 1\n   AND b <> 'x'",
        False,
        [('IDENT', 'SELECT', 1, 1), ('IDENT', 'a', 1, 8), ('OP', ',', 1, 9),
         ('IDENT', 'b', 1, 11), ('IDENT', 'FROM', 2, 3), ('IDENT', 't', 2, 8),
         ('IDENT', 'WHERE', 3, 2), ('IDENT', 'a', 3, 8), ('OP', '=', 3, 10),
         ('NUMBER', '1', 3, 12), ('IDENT', 'AND', 4, 4), ('IDENT', 'b', 4, 8),
         ('OP', '<>', 4, 10), ('STRING', 'x', 4, 13), ('EOF', '', 4, 16)],
    ),
    (
        "select T.a AS x FROM t AS T where x>=2 and x<=3 or x!=4 || 'y'",
        False,
        [('IDENT', 'select', 1, 1), ('IDENT', 'T', 1, 8), ('OP', '.', 1, 9),
         ('IDENT', 'a', 1, 10), ('IDENT', 'AS', 1, 12), ('IDENT', 'x', 1, 15),
         ('IDENT', 'FROM', 1, 17), ('IDENT', 't', 1, 22), ('IDENT', 'AS', 1, 24),
         ('IDENT', 'T', 1, 27), ('IDENT', 'where', 1, 29), ('IDENT', 'x', 1, 35),
         ('OP', '>=', 1, 36), ('NUMBER', '2', 1, 38), ('IDENT', 'and', 1, 40),
         ('IDENT', 'x', 1, 44), ('OP', '<=', 1, 45), ('NUMBER', '3', 1, 47),
         ('IDENT', 'or', 1, 49), ('IDENT', 'x', 1, 52), ('OP', '!=', 1, 53),
         ('NUMBER', '4', 1, 55), ('OP', '||', 1, 57), ('STRING', 'y', 1, 60),
         ('EOF', '', 1, 63)],
    ),
    (
        'SELECT * FROM t WHERE a IN (1, 2.5, .5, 1e3, 1E+3, 2.5e-2, 3.) LIMIT 10 OFFSET 2;',
        False,
        [('IDENT', 'SELECT', 1, 1), ('OP', '*', 1, 8), ('IDENT', 'FROM', 1, 10),
         ('IDENT', 't', 1, 15), ('IDENT', 'WHERE', 1, 17), ('IDENT', 'a', 1, 23),
         ('IDENT', 'IN', 1, 25), ('OP', '(', 1, 28), ('NUMBER', '1', 1, 29),
         ('OP', ',', 1, 30), ('NUMBER', '2.5', 1, 32), ('OP', ',', 1, 35),
         ('NUMBER', '.5', 1, 37), ('OP', ',', 1, 39), ('NUMBER', '1e3', 1, 41),
         ('OP', ',', 1, 44), ('NUMBER', '1E+3', 1, 46), ('OP', ',', 1, 50),
         ('NUMBER', '2.5e-2', 1, 52), ('OP', ',', 1, 58), ('NUMBER', '3.', 1, 60),
         ('OP', ')', 1, 62), ('IDENT', 'LIMIT', 1, 64), ('NUMBER', '10', 1, 70),
         ('IDENT', 'OFFSET', 1, 73), ('NUMBER', '2', 1, 80), ('OP', ';', 1, 81),
         ('EOF', '', 1, 82)],
    ),
    (
        "SELECT 'it''s', '', 'a''' FROM t",
        False,
        [('IDENT', 'SELECT', 1, 1), ('STRING', "it's", 1, 8), ('OP', ',', 1, 15),
         ('STRING', '', 1, 17), ('OP', ',', 1, 19), ('STRING', "a'", 1, 21),
         ('IDENT', 'FROM', 1, 27), ('IDENT', 't', 1, 32), ('EOF', '', 1, 33)],
    ),
    (
        'SELECT "quoted ident", "MiXed" FROM "t"',
        False,
        [('IDENT', 'SELECT', 1, 1), ('IDENT', 'quoted ident', 1, 8), ('OP', ',', 1, 22),
         ('IDENT', 'MiXed', 1, 24), ('IDENT', 'FROM', 1, 32), ('IDENT', 't', 1, 37),
         ('EOF', '', 1, 40)],
    ),
    (
        '-- leading comment\nSELECT 1 -- trailing\n/* block\n comment */ FROM t /**/',
        False,
        [('IDENT', 'SELECT', 2, 1), ('NUMBER', '1', 2, 8), ('IDENT', 'FROM', 4, 13),
         ('IDENT', 't', 4, 18), ('EOF', '', 4, 24)],
    ),
    (
        'SELECT a-b, a - -5, a--comment\n FROM t',
        False,
        [('IDENT', 'SELECT', 1, 1), ('IDENT', 'a', 1, 8), ('OP', '-', 1, 9),
         ('IDENT', 'b', 1, 10), ('OP', ',', 1, 11), ('IDENT', 'a', 1, 13),
         ('OP', '-', 1, 15), ('OP', '-', 1, 17), ('NUMBER', '5', 1, 18), ('OP', ',', 1, 19),
         ('IDENT', 'a', 1, 21), ('IDENT', 'FROM', 2, 2), ('IDENT', 't', 2, 7),
         ('EOF', '', 2, 8)],
    ),
    (
        'SELECT x$y, _z#, t1.c2 FROM t1 WHERE a = ? AND b % 2 = 0 AND c / 3 = [d]',
        False,
        [('IDENT', 'SELECT', 1, 1), ('IDENT', 'x$y', 1, 8), ('OP', ',', 1, 11),
         ('IDENT', '_z#', 1, 13), ('OP', ',', 1, 16), ('IDENT', 't1', 1, 18),
         ('OP', '.', 1, 20), ('IDENT', 'c2', 1, 21), ('IDENT', 'FROM', 1, 24),
         ('IDENT', 't1', 1, 29), ('IDENT', 'WHERE', 1, 32), ('IDENT', 'a', 1, 38),
         ('OP', '=', 1, 40), ('OP', '?', 1, 42), ('IDENT', 'AND', 1, 44),
         ('IDENT', 'b', 1, 48), ('OP', '%', 1, 50), ('NUMBER', '2', 1, 52),
         ('OP', '=', 1, 54), ('NUMBER', '0', 1, 56), ('IDENT', 'AND', 1, 58),
         ('IDENT', 'c', 1, 62), ('OP', '/', 1, 64), ('NUMBER', '3', 1, 66),
         ('OP', '=', 1, 68), ('OP', '[', 1, 70), ('IDENT', 'd', 1, 71), ('OP', ']', 1, 72),
         ('EOF', '', 1, 73)],
    ),
    (
        '1..2 1.2.3 1e 1e+ 1ex 1.e5 .5.5 0.',
        False,
        [('NUMBER', '1', 1, 1), ('OP', '.', 1, 2), ('NUMBER', '.2', 1, 3),
         ('NUMBER', '1.2', 1, 6), ('NUMBER', '.3', 1, 9), ('NUMBER', '1', 1, 12),
         ('IDENT', 'e', 1, 13), ('NUMBER', '1', 1, 15), ('IDENT', 'e', 1, 16),
         ('OP', '+', 1, 17), ('NUMBER', '1', 1, 19), ('IDENT', 'ex', 1, 20),
         ('NUMBER', '1.e5', 1, 23), ('NUMBER', '.5', 1, 28), ('NUMBER', '.5', 1, 30),
         ('NUMBER', '0.', 1, 33), ('EOF', '', 1, 35)],
    ),
    (
        '\tSELECT\r\n1\r\n',
        False,
        [('IDENT', 'SELECT', 1, 2), ('NUMBER', '1', 2, 1), ('EOF', '', 3, 1)],
    ),
    (
        '',
        False,
        [('EOF', '', 1, 1)],
    ),
    (
        '   \n  ',
        False,
        [('EOF', '', 2, 3)],
    ),
    (
        'OUT OF Xdept AS DEPT, ALL-DEPS AS (RELATE Xdept, Xemp WHERE a = b)\nTAKE *',
        True,
        [('IDENT', 'OUT', 1, 1), ('IDENT', 'OF', 1, 5), ('IDENT', 'Xdept', 1, 8),
         ('IDENT', 'AS', 1, 14), ('IDENT', 'DEPT', 1, 17), ('OP', ',', 1, 21),
         ('IDENT', 'ALL-DEPS', 1, 23), ('IDENT', 'AS', 1, 32), ('OP', '(', 1, 35),
         ('IDENT', 'RELATE', 1, 36), ('IDENT', 'Xdept', 1, 43), ('OP', ',', 1, 48),
         ('IDENT', 'Xemp', 1, 50), ('IDENT', 'WHERE', 1, 55), ('IDENT', 'a', 1, 61),
         ('OP', '=', 1, 63), ('IDENT', 'b', 1, 65), ('OP', ')', 1, 66),
         ('IDENT', 'TAKE', 2, 1), ('OP', '*', 2, 6), ('EOF', '', 2, 7)],
    ),
    (
        'Xdept->employs->Xemp, A-B-C, a - b, x-1, y--comment\n z',
        True,
        [('IDENT', 'Xdept', 1, 1), ('OP', '->', 1, 6), ('IDENT', 'employs', 1, 8),
         ('OP', '->', 1, 15), ('IDENT', 'Xemp', 1, 17), ('OP', ',', 1, 21),
         ('IDENT', 'A-B-C', 1, 23), ('OP', ',', 1, 28), ('IDENT', 'a', 1, 30),
         ('OP', '-', 1, 32), ('IDENT', 'b', 1, 34), ('OP', ',', 1, 35),
         ('IDENT', 'x-1', 1, 37), ('OP', ',', 1, 40), ('IDENT', 'y', 1, 42),
         ('IDENT', 'z', 2, 2), ('EOF', '', 2, 3)],
    ),
    (
        'OUT OF x -- note\n/* multi\nline */ TAKE x->y',
        True,
        [('IDENT', 'OUT', 1, 1), ('IDENT', 'OF', 1, 5), ('IDENT', 'x', 1, 8),
         ('IDENT', 'TAKE', 3, 9), ('IDENT', 'x', 3, 14), ('OP', '->', 3, 15),
         ('IDENT', 'y', 3, 17), ('EOF', '', 3, 18)],
    ),
    ("SELECT 'unterminated FROM t", False, ('error', 'unterminated string literal (line 1, column 8)', 1, 8)),
    ('SELECT a FROM t\n /* never closed', False, ('error', 'unterminated block comment (line 2, column 2)', 2, 2)),
    ('SELECT "unterminated FROM t', False, ('error', 'unterminated quoted identifier (line 1, column 8)', 1, 8)),
    ('SELECT a FROM t\n  WHERE a @ 1', False, ('error', "unexpected character '@' (line 2, column 11)", 2, 11)),
    ("SELECT a FROM t WHERE b = 'it''s", False, ('error', 'unterminated string literal (line 1, column 27)', 1, 27)),
    ('SELECT a FROM t WHERE b = \'ok\' AND c = "x', False, ('error', 'unterminated quoted identifier (line 1, column 40)', 1, 40)),
    ("x\n\ny\n  'a\nb' z !", False, ('error', "unexpected character '!' (line 5, column 6)", 5, 6)),
    ('SELECT é, naïve FROM t WHERE ü = 1 {', False, ('error', "unexpected character '{' (line 1, column 36)", 1, 36)),
    ('OUT OF a\n  TAKE b & c', True, ('error', "unexpected character '&' (line 2, column 10)", 2, 10)),
    (
        'a-',
        True,
        [('IDENT', 'a', 1, 1), ('OP', '-', 1, 2), ('EOF', '', 1, 3)],
    ),
    ('SELECT 1\x0c', False, ('error', "unexpected character '\\x0c' (line 1, column 9)", 1, 9)),
]


@pytest.mark.parametrize("source, hyphen_idents, expected", CORPUS)
def test_lexer_matches_recorded_corpus(source, hyphen_idents, expected):
    if expected[0] == "error":
        with pytest.raises(ParseError) as caught:
            tokenize(source, hyphen_idents=hyphen_idents)
        err = caught.value
        assert ("error", str(err), err.line, err.column) == expected
    else:
        tokens = tokenize(source, hyphen_idents=hyphen_idents)
        assert [(t.kind, t.text, t.line, t.column) for t in tokens] == expected
