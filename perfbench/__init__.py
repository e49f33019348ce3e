"""Benchmark for burnkit: the crossval, refute and classify workloads.

The entry point is ``perfbench/run.py``; see ``perfbench/README.md``.
"""
