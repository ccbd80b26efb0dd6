"""Cursors over the CO cache (sections 3.7 and 4.2).

Two kinds, exactly as the paper defines them:

* an **independent cursor** browses all tuples of one node;
* a **dependent cursor** is bound to another cursor through a path
  expression — opening it "gives only access to those employee tuples which
  are reachable from the department the cursor aDept currently points to".

Cursors are also Python iterables, so ``for emp in co.cursor("Xemp")``
works; ``fetch()`` / ``close()`` mirror the embedded-SQL style API of the
paper.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import CursorError, PathError
from repro.xnf.cache import CachedTuple, COCache
from repro.xnf.lang import xast
from repro.xnf.lang.parser import XNFParser
from repro.xnf.paths import evaluate_path


def parse_path_steps(path: str) -> List[xast.PathStep]:
    """Parse a path fragment like ``employment->Xemp->projmanagement``."""
    parser = XNFParser(f"__start__->{path}")
    expr = parser._parse_path_expr()
    if parser.peek().kind != "EOF":
        raise PathError(f"trailing input after path {path!r}")
    return expr.steps


class Cursor:
    """Common cursor behaviour: open/fetch/close and iteration."""

    def __init__(self, cache: COCache):
        self.cache = cache
        self._tuples: List[CachedTuple] = []
        self._position = -1
        self._open = False

    # -- the embedded-SQL-style interface ------------------------------------------

    def open(self) -> "Cursor":
        self._tuples = self._compute_tuples()
        self._position = -1
        self._open = True
        return self

    def fetch(self) -> Optional[CachedTuple]:
        """Advance and return the next tuple, or None when exhausted."""
        if not self._open:
            raise CursorError("fetch on a closed cursor")
        while self._position + 1 < len(self._tuples):
            self._position += 1
            cached = self._tuples[self._position]
            if cached.alive:
                return cached
        return None

    @property
    def current(self) -> Optional[CachedTuple]:
        if not self._open or self._position < 0:
            return None
        if self._position >= len(self._tuples):
            return None
        cached = self._tuples[self._position]
        return cached if cached.alive else None

    def rewind(self) -> None:
        if not self._open:
            raise CursorError("rewind on a closed cursor")
        self._position = -1

    def close(self) -> None:
        self._open = False
        self._tuples = []
        self._position = -1

    def __iter__(self) -> Iterator[CachedTuple]:
        if not self._open:
            self.open()
        while True:
            cached = self.fetch()
            if cached is None:
                return
            yield cached

    def __enter__(self) -> "Cursor":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- subclass hook ---------------------------------------------------------------

    def _compute_tuples(self) -> List[CachedTuple]:
        raise NotImplementedError


class IndependentCursor(Cursor):
    """Browses all live tuples of one node."""

    def __init__(self, cache: COCache, node: str):
        super().__init__(cache)
        if node not in cache.tuples:
            raise CursorError(f"unknown node {node!r}")
        self.node = node

    def _compute_tuples(self) -> List[CachedTuple]:
        return self.cache.node(self.node)

    def __repr__(self) -> str:
        return f"IndependentCursor({self.node})"


class DependentCursor(Cursor):
    """Bound to a parent cursor through a path expression.

    Reopening after the parent cursor moves re-evaluates the path from the
    parent's new position; :meth:`refresh` is a convenience for that.
    """

    def __init__(self, cache: COCache, parent: Cursor, path: str):
        super().__init__(cache)
        self.parent = parent
        self.path_text = path
        self.steps = cache.path_steps(path)

    def _compute_tuples(self) -> List[CachedTuple]:
        anchor = self.parent.current
        if anchor is None:
            raise CursorError(
                "dependent cursor opened while its parent cursor is not "
                "positioned on a tuple"
            )
        path = xast.PathExpr(anchor.node, self.steps)
        return evaluate_path(self.cache, path, {anchor.node: anchor, "__anchor__": anchor})

    def refresh(self) -> "DependentCursor":
        """Re-open against the parent cursor's current position."""
        self.open()
        return self

    def __repr__(self) -> str:
        return f"DependentCursor({self.path_text})"
