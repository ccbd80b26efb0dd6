"""Expected outputs, computed in plain Python from the generated inputs.

Nothing here calls the engine: the OO1 oracle replays the generator's
random stream and walks the resulting multigraph itself; the design
oracle follows from the generator's fixed shape (dense ids, 3 versions
per document, 20 components per version, 4 subcomponents per component).
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.workloads import design
from repro.workloads.oo1 import generate_connections

PartRow = Tuple[int, str, int, int, int]
ConnRow = Tuple[int, int, str, int]


class PartsOracle:
    """The OO1 parts graph of ``build_parts_database(num_parts, seed)``."""

    def __init__(self, num_parts: int, seed: int):
        rng = random.Random(seed)
        # build_parts_database draws ptype, x, y per part, then hands the
        # same stream to generate_connections; check_generator() catches a
        # generator that stops doing so.
        self.parts: Dict[int, PartRow] = {
            pid: (pid, f"part-type{rng.randint(0, 9)}", rng.randint(0, 99999),
                  rng.randint(0, 99999), 1)
            for pid in range(1, num_parts + 1)
        }
        self.connections: List[ConnRow] = generate_connections(num_parts, rng)
        # The generator now and then draws the same connection row twice.
        # SQL over CONN sees a bag and returns both; a CO's relationship is
        # a set of connection instances and holds one.
        self.adjacency = self._adjacency(self.connections)
        self.set_adjacency = self._adjacency(dict.fromkeys(self.connections))
        self._walks: Dict[Tuple[bool, int], Dict[int, int]] = {}

    def _adjacency(self, rows: Iterable[ConnRow]) -> Dict[int, List[int]]:
        adjacency: Dict[int, List[int]] = {pid: [] for pid in self.parts}
        for cfrom, cto, _ctype, _clength in rows:
            adjacency[cfrom].append(cto)
        return adjacency

    def walk_visits(self, start: int, depth: int, as_set: bool = False) -> int:
        """Visits of a depth-first traversal that counts a part once per
        arrival: the number of walks of length <= depth from *start*, over
        the bag of CONN rows or (*as_set*) the set of connection instances."""
        return self._walk_table(as_set, depth)[start]

    def _walk_table(self, as_set: bool, depth: int) -> Dict[int, int]:
        table = self._walks.get((as_set, depth))
        if table is None:
            adjacency = self.set_adjacency if as_set else self.adjacency
            if depth == 0:
                table = {pid: 1 for pid in adjacency}
            else:
                below = self._walk_table(as_set, depth - 1)
                table = {
                    pid: 1 + sum(below[target] for target in targets)
                    for pid, targets in adjacency.items()
                }
            self._walks[(as_set, depth)] = table
        return table

    def two_hops(self, start: int) -> Set[int]:
        """Distinct parts exactly two connections away (a path is a set)."""
        return {
            far
            for near in set(self.adjacency[start])
            for far in self.adjacency[near]
        }

    def closure(self, root: int) -> FrozenSet[int]:
        """Parts reachable from *root*, itself included: a set, however
        many cycles lead back into it."""
        seen = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for pid in frontier:
                for target in self.adjacency[pid]:
                    if target not in seen:
                        seen.add(target)
                        nxt.append(target)
            frontier = nxt
        return frozenset(seen)

    def closure_connections(self, members: FrozenSet[int]) -> int:
        """Distinct connection instances among *members* (every target of
        a member is a member, so filtering on the source suffices)."""
        return len({row for row in self.connections if row[0] in members})

    def check_generator(self, conn_pairs: List[Tuple[int, int]]) -> None:
        """Fail loudly when the replay no longer matches the database."""
        expected = sorted((row[0], row[1]) for row in self.connections)
        if sorted(conn_pairs) != expected:
            raise RuntimeError(
                "perf oracle out of step with repro.workloads.oo1: the CONN "
                "rows in the database are not the ones the replay generated"
            )


class DesignOracle:
    """Shape of ``build_design_database``: ids are dense and nested."""

    COMPONENTS = design.COMPONENTS_PER_VERSION
    SUBCOMPS = design.SUBCOMPS_PER_COMPONENT
    VERSIONS = design.VERSIONS_PER_DOCUMENT
    NODE_COUNTS = {
        "Xdoc": 1,
        "Xver": 1,
        "Xcomp": COMPONENTS,
        "Xsub": COMPONENTS * SUBCOMPS,
    }

    def __init__(self, num_documents: int):
        self.num_documents = num_documents
        self.num_subcomps = (
            num_documents * self.VERSIONS * self.COMPONENTS * self.SUBCOMPS
        )

    def version_id(self, did: int, vnum: int) -> int:
        return (did - 1) * self.VERSIONS + vnum

    def component_ids(self, vid: int) -> range:
        return range((vid - 1) * self.COMPONENTS + 1, vid * self.COMPONENTS + 1)

    def subcomp_ids_of_component(self, cid: int) -> range:
        return range((cid - 1) * self.SUBCOMPS + 1, cid * self.SUBCOMPS + 1)

    def subcomp_ids(self, vid: int) -> range:
        cids = self.component_ids(vid)
        return range(
            self.subcomp_ids_of_component(cids[0])[0],
            self.subcomp_ids_of_component(cids[-1])[-1] + 1,
        )

    def component_of(self, sid: int) -> int:
        return (sid - 1) // self.SUBCOMPS + 1
