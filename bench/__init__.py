"""The perf ledger: seven workloads, end-to-end metrics and a per-layer
attribution table for the discovery stack, measured from outside the
program through its public API.  See ``bench/README.md``.
"""
