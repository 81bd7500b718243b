"""Benchmark harness: cost parameters and per-figure experiments."""

from .costmodel import CostParams, LockTable
from .report import format_series, format_table, print_table, ratio_check

# NOTE: `repro.bench.harness` is imported on demand (it depends on the
# baselines, which themselves use the cost models defined here).
__all__ = [
    "CostParams",
    "LockTable",
    "format_series",
    "format_table",
    "print_table",
    "ratio_check",
    "harness",
]
