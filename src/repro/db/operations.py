"""Graph write operations and their two execution targets.

A Weaver transaction is a buffered list of operations (section 2.2).  Each
operation knows how to do three things:

* ``touched()`` — the vertex handles it writes, used for shard routing and
  for the gatekeeper's last-update timestamp check;
* ``apply_store(tx)`` — execute against the durable backing store,
  where validity is checked (deleting a deleted vertex aborts, exactly as
  in section 4.2).  No stamp exists yet: the gatekeeper stamps at commit
  and writes the only stamps the store holds (last-update records);
* ``apply_graph(graph, ts)`` — replay onto a shard's in-memory
  multi-version graph after the backing store committed.

The backing-store schema: a vertex lives at ``v:<handle>`` as a dict of
its properties, an edge at ``e:<src>:<handle>`` as a dict with ``dst`` and
``props``.  The schema is private to this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

from ..core.vclock import VectorTimestamp
from ..errors import TransactionAborted
from ..graph import MultiVersionGraph
from ..store.kvstore import StoreTransaction


def vertex_key(handle: str) -> str:
    return f"v:{handle}"


def edge_key(src: str, handle: str) -> str:
    return f"e:{src}:{handle}"


class Operation:
    """Base class for all graph write operations."""

    def touched(self) -> FrozenSet[str]:
        raise NotImplementedError

    def apply_store(self, tx: StoreTransaction) -> None:
        raise NotImplementedError

    def apply_graph(
        self, graph: MultiVersionGraph, ts: VectorTimestamp
    ) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class CreateVertex(Operation):
    handle: str

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.handle,))

    def apply_store(self, tx: StoreTransaction) -> None:
        key = vertex_key(self.handle)
        if tx.exists(key):
            raise TransactionAborted(f"vertex {self.handle!r} exists")
        tx.put(key, {})

    def apply_graph(
        self, graph: MultiVersionGraph, ts: VectorTimestamp
    ) -> None:
        graph.create_vertex(self.handle, ts)


@dataclass(frozen=True)
class DeleteVertex(Operation):
    handle: str

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.handle,))

    def apply_store(self, tx: StoreTransaction) -> None:
        key = vertex_key(self.handle)
        if not tx.exists(key):
            raise TransactionAborted(f"vertex {self.handle!r} already gone")
        tx.delete(key)

    def apply_graph(
        self, graph: MultiVersionGraph, ts: VectorTimestamp
    ) -> None:
        graph.delete_vertex(self.handle, ts)


@dataclass(frozen=True)
class CreateEdge(Operation):
    handle: str
    src: str
    dst: str

    def touched(self) -> FrozenSet[str]:
        # An edge lives with its source; the write only mutates the source
        # partition, but creating an edge to a missing vertex must abort,
        # so the destination is read (not written) during apply_store.
        return frozenset((self.src,))

    def apply_store(self, tx: StoreTransaction) -> None:
        if not tx.exists(vertex_key(self.src)):
            raise TransactionAborted(f"source {self.src!r} missing")
        if not tx.exists(vertex_key(self.dst)):
            raise TransactionAborted(f"destination {self.dst!r} missing")
        key = edge_key(self.src, self.handle)
        if tx.exists(key):
            raise TransactionAborted(f"edge {self.handle!r} exists")
        tx.put(key, {"dst": self.dst, "props": {}})

    def apply_graph(
        self, graph: MultiVersionGraph, ts: VectorTimestamp
    ) -> None:
        graph.create_edge(self.handle, self.src, self.dst, ts)


@dataclass(frozen=True)
class DeleteEdge(Operation):
    src: str
    handle: str

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.src,))

    def apply_store(self, tx: StoreTransaction) -> None:
        key = edge_key(self.src, self.handle)
        if not tx.exists(key):
            raise TransactionAborted(f"edge {self.handle!r} already gone")
        tx.delete(key)

    def apply_graph(
        self, graph: MultiVersionGraph, ts: VectorTimestamp
    ) -> None:
        graph.delete_edge(self.src, self.handle, ts)


@dataclass(frozen=True)
class SetVertexProperty(Operation):
    handle: str
    key: str
    value: Any

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.handle,))

    def apply_store(self, tx: StoreTransaction) -> None:
        vkey = vertex_key(self.handle)
        record = tx.get(vkey)
        if record is None:
            raise TransactionAborted(f"vertex {self.handle!r} missing")
        updated = dict(record)
        updated[self.key] = self.value
        tx.put(vkey, updated)

    def apply_graph(
        self, graph: MultiVersionGraph, ts: VectorTimestamp
    ) -> None:
        graph.set_vertex_property(self.handle, self.key, self.value, ts)


@dataclass(frozen=True)
class DeleteVertexProperty(Operation):
    handle: str
    key: str

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.handle,))

    def apply_store(self, tx: StoreTransaction) -> None:
        vkey = vertex_key(self.handle)
        record = tx.get(vkey)
        if record is None:
            raise TransactionAborted(f"vertex {self.handle!r} missing")
        updated = dict(record)
        updated.pop(self.key, None)
        tx.put(vkey, updated)

    def apply_graph(
        self, graph: MultiVersionGraph, ts: VectorTimestamp
    ) -> None:
        graph.delete_vertex_property(self.handle, self.key, ts)


@dataclass(frozen=True)
class SetEdgeProperty(Operation):
    src: str
    handle: str
    key: str
    value: Any

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.src,))

    def apply_store(self, tx: StoreTransaction) -> None:
        ekey = edge_key(self.src, self.handle)
        record = tx.get(ekey)
        if record is None:
            raise TransactionAborted(f"edge {self.handle!r} missing")
        updated = dict(record)
        props = dict(updated.get("props", {}))
        props[self.key] = self.value
        updated["props"] = props
        tx.put(ekey, updated)

    def apply_graph(
        self, graph: MultiVersionGraph, ts: VectorTimestamp
    ) -> None:
        graph.set_edge_property(
            self.src, self.handle, self.key, self.value, ts
        )


@dataclass(frozen=True)
class DeleteEdgeProperty(Operation):
    src: str
    handle: str
    key: str

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.src,))

    def apply_store(self, tx: StoreTransaction) -> None:
        ekey = edge_key(self.src, self.handle)
        record = tx.get(ekey)
        if record is None:
            raise TransactionAborted(f"edge {self.handle!r} missing")
        updated = dict(record)
        props = dict(updated.get("props", {}))
        props.pop(self.key, None)
        updated["props"] = props
        tx.put(ekey, updated)

    def apply_graph(
        self, graph: MultiVersionGraph, ts: VectorTimestamp
    ) -> None:
        graph.delete_edge_property(self.src, self.handle, self.key, ts)


def touched_vertices(operations) -> FrozenSet[str]:
    """Union of vertices written by a list of operations."""
    touched: Set[str] = set()
    for op in operations:
        touched |= op.touched()
    return frozenset(touched)


GraphState = Tuple[
    Dict[str, Dict[str, Any]], Dict[Tuple[str, str], Dict[str, Any]]
]


def graph_state_from_store(store_snapshot: Dict[str, Any]) -> GraphState:
    """Decode a backing-store snapshot into vertex and edge tables.

    Used by shard recovery (section 4.3): a replacement shard reloads its
    partition from the durable store.  Returns ``(vertices, edges)`` where
    vertices maps handle -> properties and edges maps (src, handle) ->
    {"dst":..., "props":...}.
    """
    vertices: Dict[str, Dict[str, Any]] = {}
    edges: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for key, value in store_snapshot.items():
        if key.startswith("v:"):
            vertices[key[2:]] = value
        elif key.startswith("e:"):
            src, handle = key[2:].split(":", 1)
            edges[(src, handle)] = value
    return vertices, edges


def partition_image(
    store_snapshot: Dict[str, Any], placement: Dict[str, int], index: int
) -> GraphState:
    """Shard ``index``'s share of a backing-store snapshot: the
    :func:`graph_state_from_store` tables filtered by ``placement``
    (an edge lives with its source vertex)."""
    vertices, edges = graph_state_from_store(store_snapshot)
    return (
        {h: p for h, p in vertices.items() if placement.get(h) == index},
        {k: r for k, r in edges.items() if placement.get(k[0]) == index},
    )


def vertex_image(store, handle: str) -> Optional[GraphState]:
    """One vertex's committed state in :func:`partition_image`'s shape,
    read from the backing store (demand paging, section 6.1); None when
    the vertex does not exist."""
    record = store.get(vertex_key(handle))
    if record is None:
        return None
    prefix = edge_key(handle, "")
    return {handle: dict(record)}, {
        (handle, key[len(prefix):]): store.get(key)
        for key in store.keys(prefix)
    }


def load_partition(
    graph: MultiVersionGraph, image: GraphState, ts: VectorTimestamp
) -> None:
    """Install a :func:`partition_image` (or any part of one) into a
    shard's graph, every record stamped at ``ts``: the one way a shard
    takes committed state from the store — recovery, reconciliation
    and demand paging."""
    vertices, edges = image
    for handle, props in vertices.items():
        graph.create_vertex(handle, ts)
        for key, value in props.items():
            graph.set_vertex_property(handle, key, value, ts)
    for (src, handle), record in edges.items():
        graph.create_edge(handle, src, record["dst"], ts)
        for key, value in record.get("props", {}).items():
            graph.set_edge_property(src, handle, key, value, ts)
