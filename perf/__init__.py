"""The repo's benchmark: six named workloads, end-to-end metrics with
bounds, and a per-layer waterfall timed from outside ``src/``.

See ``perf/README.md`` and the root ``BENCHMARK.json``.
"""
