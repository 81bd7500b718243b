"""Baseline systems the paper's evaluation compares against."""

from .titan import TitanGraph, TitanStats
from .graphlab import BfsProgram, GasProgram, GraphLab
from .blockchain_info import RelationalExplorer

__all__ = [
    "TitanGraph",
    "TitanStats",
    "BfsProgram",
    "GasProgram",
    "GraphLab",
    "RelationalExplorer",
]
