"""The performance ledger: pinned-loopback workloads, generic-vs-
specialized end-to-end metrics, and an outside-in per-layer trace.

Entry point: ``python3 benchmarks/ledger/run.py`` (see README.md).
"""
