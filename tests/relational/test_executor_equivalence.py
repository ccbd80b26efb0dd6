"""The executor on inputs spanning several batches, checked against SQLite.

The SQLite-crosscheck corpus and its batch-kernel extras run here over a P
table larger than two batches, so every scan, filter, join, aggregate,
sort and limit meets batch boundaries (the small crosscheck tables fit in
one batch).  Added cases target the boundaries directly: LIMIT/OFFSET
across a batch edge, DISTINCT and GROUP BY with more than one batch of
groups, a LEFT JOIN with a residual predicate, correlated subqueries over
more than a batch of outer rows, and the bag set operations.
"""

import re
from collections import Counter

import pytest

from repro.relational.executor.batch import BATCH_SIZE
from tests.relational.test_sqlite_crosscheck import (
    CROSSCHECK_QUERIES,
    EXTRA_ORDERED,
    EXTRA_QUERIES,
    ORDERED_QUERIES,
    check,
    load_engines,
    people_and_pets,
)

N_PEOPLE = 2 * BATCH_SIZE + 452
N_PETS = 260


@pytest.fixture(scope="module")
def pair():
    return load_engines(*people_and_pets(N_PEOPLE, N_PETS))


BOUNDARY_QUERIES = [
    # more than one batch of groups
    "SELECT DISTINCT name, age FROM P",
    "SELECT id / 2, COUNT(*), SUM(age), MAX(city) FROM P GROUP BY id / 2",
    # LEFT JOIN whose ON clause keeps a residual beside the equi key
    "SELECT P.id, Q.pid FROM P LEFT JOIN Q ON P.id = Q.owner AND Q.age < P.age - 40",
    # correlated EXISTS and scalar subqueries over every outer row of P
    "SELECT id FROM P WHERE NOT EXISTS "
    "(SELECT 1 FROM Q WHERE Q.owner = P.id AND Q.species = 'cat')",
    "SELECT id, (SELECT COUNT(*) FROM Q WHERE Q.owner < P.id) FROM P",
]

BOUNDARY_ORDERED = [
    f"SELECT id, name FROM P ORDER BY id LIMIT 100 OFFSET {BATCH_SIZE - 50}",
    f"SELECT id FROM P ORDER BY age DESC, id LIMIT {BATCH_SIZE + 7} OFFSET {BATCH_SIZE + 3}",
]


@pytest.mark.parametrize("query", CROSSCHECK_QUERIES + EXTRA_QUERIES + BOUNDARY_QUERIES)
def test_unordered_equivalence(pair, query):
    check(pair, query)


@pytest.mark.parametrize("query", ORDERED_QUERIES + EXTRA_ORDERED + BOUNDARY_ORDERED)
def test_ordered_equivalence(pair, query):
    check(pair, query, ordered=True)


@pytest.mark.parametrize("op", ["UNION ALL", "INTERSECT ALL", "EXCEPT ALL"])
def test_bag_set_operations(pair, op):
    """SQLite lacks INTERSECT/EXCEPT ALL: the expected bag is built from
    its answers to the two arms."""
    ours, ref = pair
    left, right = "SELECT age % 19 FROM P", "SELECT age FROM Q"
    a = Counter(ref.execute(left).fetchall())
    b = Counter(ref.execute(right).fetchall())
    expected = {"UNION ALL": a + b, "INTERSECT ALL": a & b, "EXCEPT ALL": a - b}[op]
    assert expected
    assert Counter(ours.execute(f"{left} {op} {right}").rows) == expected


def test_not_vacuous(pair):
    """The fill really spans batch boundaries: P scans in three or more
    batches."""
    ours, _ = pair
    text = ours.explain_analyze("SELECT id FROM P WHERE age >= 30")
    scan = next(line for line in text.splitlines() if "SeqScan(P)" in line)
    assert int(re.search(r"batches=(\d+)", scan).group(1)) >= 3


def test_analyze_reports_batches(pair):
    ours, _ = pair
    text = ours.explain_analyze("SELECT id FROM P WHERE age >= 30")
    assert "batches=" in text and "fill=" in text


def test_xnf_extraction_equivalence():
    """A CO extracted by the generated queries equals the same tuples and
    connections read with one plain SQL query each."""
    from repro.workloads.oo1 import build_parts_database, load_parts_co
    from repro.xnf.api import XNFSession

    db = build_parts_database(80)
    co = load_parts_co(XNFSession(db))
    parts = sorted(tuple(t.values()) for t in co.node("Xpart"))
    conns = {
        (
            tuple(c.parent.values()),
            tuple(c.child.values()),
            tuple(sorted(c.attributes.items())),
        )
        for c in co.connections("connects")
    }
    assert parts == sorted(db.execute("SELECT * FROM PART").rows)
    sql = (
        "SELECT s.*, t.*, c.clength, c.ctype FROM PART s, CONN c, PART t "
        "WHERE s.pid = c.cfrom AND t.pid = c.cto"
    )
    assert conns == {
        (row[:5], row[5:10], (("clength", row[10]), ("ctype", row[11])))
        for row in db.execute(sql).rows
    }
