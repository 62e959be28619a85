"""Experiment harnesses regenerating every figure of the paper's evaluation.

Each ``figNN_*`` module holds one figure's grid cells, the experiment one
grid point runs and the renderer of its table; :mod:`repro.bench.figures`
pairs them with the figure's parameters, and the command line
(:mod:`repro.bench.cli`) and the ``benchmarks/`` wrappers run that table.
"""
