"""Benchmark of the contextvit package: three workloads, end-to-end and per-layer figures."""
