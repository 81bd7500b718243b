"""Benchmark harness: cost models and per-figure experiments."""

from .costmodel import ClosedLoop, ClosedLoopResult, CostParams, LockTable, Resource
from .models import CoinGraphModel
from .report import format_series, format_table, print_table, ratio_check

# NOTE: `repro.bench.harness` is imported on demand (it depends on the
# baselines, which themselves use the cost models defined here).
__all__ = [
    "ClosedLoop",
    "ClosedLoopResult",
    "CostParams",
    "LockTable",
    "Resource",
    "CoinGraphModel",
    "format_series",
    "format_table",
    "print_table",
    "ratio_check",
    "harness",
]
