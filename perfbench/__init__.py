"""Benchmark harness for enermod: two workloads, untraced and traced runs."""
