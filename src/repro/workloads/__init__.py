"""Workload generators for examples, tests and ``perf/``.

* :mod:`~repro.workloads.company` — the paper's running example: the
  company database of Figs 1–5 in both representations of Fig. 2 (implicit
  foreign keys and explicit link tables), plus a size-scalable generator.
* :mod:`~repro.workloads.oo1` — a Cattell OO1-style parts/connections
  database (the benchmark the paper cites for its orders-of-magnitude
  claim), with the standard lookup/traversal/insert operations.
* :mod:`~repro.workloads.design` — a CAD-flavoured design database with
  documents, versions and components for the working-set extraction
  experiment (section 1's 1-in-10⁴…10⁵ selectivity scenario).
"""

from repro.workloads import company, design, oo1

__all__ = ["company", "design", "oo1"]
