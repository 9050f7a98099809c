"""The cost ledger: one harness, four workloads, end-to-end metrics with
regression bounds and per-layer spans timed from outside. See README.md.
"""
