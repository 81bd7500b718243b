"""The multi-version property graph and vertex placement by hash."""

from .properties import (
    Comparator,
    LifeSpan,
    PropertyBag,
    PropertyRecord,
    vclock_compare,
)
from .elements import Edge, Vertex
from .mvgraph import EdgeView, MultiVersionGraph, SnapshotView, VertexView
from .partition import HashPartitioner

__all__ = [
    "Comparator",
    "LifeSpan",
    "PropertyBag",
    "PropertyRecord",
    "vclock_compare",
    "Edge",
    "Vertex",
    "EdgeView",
    "MultiVersionGraph",
    "SnapshotView",
    "VertexView",
    "HashPartitioner",
]
