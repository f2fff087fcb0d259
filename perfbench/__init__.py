"""Benchmark of ivfuse: seeded workloads, end-to-end metrics and traced layers."""
