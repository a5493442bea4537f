"""Benchmark harness: regenerates every table and figure of the paper.

Each experiment function builds a fresh simulated deployment, drives
the paper's workload, and returns structured results;
:mod:`repro.bench.tables` renders them next to the paper's reported
numbers. Single-client latency (Fig. 7) comes from :func:`fig7_cell`;
every multi-client experiment (Figs. 8 and 9, the capacity
observatory, the host-speed scenarios) is the one closed loop of
:func:`drive_closed_loop`, and :data:`GROUP_COMMIT` names the batched
disk deployment the headline bench and capacity share. The
``benchmarks/`` directory wraps these in pytest-benchmark targets (one
per table/figure) and EXPERIMENTS.md records the paper-vs-measured
comparison.
"""

from repro.bench.harness import (
    GROUP_COMMIT,
    IMPLEMENTATIONS,
    build_deployment,
    drive_closed_loop,
    fig7_cell,
    fig7_table,
    lookup_throughput,
    update_throughput,
)
from repro.bench.tables import format_fig7, format_throughput_curve

__all__ = [
    "GROUP_COMMIT",
    "IMPLEMENTATIONS",
    "build_deployment",
    "drive_closed_loop",
    "fig7_cell",
    "fig7_table",
    "format_fig7",
    "format_throughput_curve",
    "lookup_throughput",
    "update_throughput",
]
