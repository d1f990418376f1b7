"""The perf ledger: one harness, one schema, for single runs, sweeps and the fleet.

``BENCHMARK.json`` at the repo root names the metrics and their bounds;
this package measures them.  See ``README.md`` in this directory.
"""
