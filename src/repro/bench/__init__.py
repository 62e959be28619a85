"""Experiment harnesses regenerating every figure of the paper's evaluation.

Each ``figNN_*`` module exposes a ``run_*`` function returning structured
results plus a ``format_report`` helper that prints the same rows/series the
corresponding figure shows.  The pytest-benchmark wrappers in ``benchmarks/``
call these with scaled-down defaults; pass larger parameters for
paper-scale runs.
"""

from repro.bench import ablations, common, perf, sweep
from repro.bench.fig05_single_latency import run_fig05, format_fig05
from repro.bench.fig06_load import run_fig06, format_fig06
from repro.bench.fig07_divergence import run_fig07, format_fig07
from repro.bench.fig08_bandwidth import run_fig08, format_fig08
from repro.bench.fig09_zk_latency import run_fig09, format_fig09
from repro.bench.fig10_zk_bandwidth import run_fig10, format_fig10
from repro.bench.fig11_apps import run_fig11, format_fig11
from repro.bench.fig12_tickets import run_fig12, format_fig12
from repro.bench.fig13_faults import (
    run_fig13_all,
    run_fig13_zookeeper,
    format_fig13,
)
from repro.bench.fig14_open_loop import run_fig14, format_fig14
from repro.bench.fig15_rebalance import run_fig15, format_fig15
from repro.bench.fig16_txn import run_fig16, format_fig16

__all__ = [
    "ablations",
    "common",
    "perf",
    "sweep",
    "run_fig05", "format_fig05",
    "run_fig06", "format_fig06",
    "run_fig07", "format_fig07",
    "run_fig08", "format_fig08",
    "run_fig09", "format_fig09",
    "run_fig10", "format_fig10",
    "run_fig11", "format_fig11",
    "run_fig12", "format_fig12",
    "run_fig13_all", "run_fig13_zookeeper", "format_fig13",
    "run_fig14", "format_fig14",
    "run_fig15", "format_fig15",
    "run_fig16", "format_fig16",
]
