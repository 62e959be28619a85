"""Experiment harnesses regenerating every figure of the paper's evaluation.

Each ``figNN_*`` module exposes a ``run_*`` function returning structured
results plus a ``format_report`` helper that prints the same rows/series the
corresponding figure shows.  The pytest-benchmark wrappers in ``benchmarks/``
call these with scaled-down defaults; pass larger parameters for
paper-scale runs.
"""
