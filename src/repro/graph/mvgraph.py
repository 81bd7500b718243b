"""The in-memory multi-version graph and its snapshot views.

Every mutation carries the vector timestamp of the writing transaction and
tombstones rather than destroys (section 4.2).  Reads go through a
:class:`SnapshotView` bound to one timestamp: the view exposes only the
vertices, edges, and property values whose lifespans contain that
timestamp, which is how long-running node programs observe a consistent
cut of the graph without blocking writers — and how historical queries
run on past versions.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..core.vclock import Ordering, VectorTimestamp
from ..errors import NoSuchEdge, NoSuchVertex
from .elements import Edge, Vertex
from .properties import Comparator, MemoizedComparator, vclock_compare


class MultiVersionGraph:
    """A timestamp-versioned property graph (one shard's partition)."""

    def __init__(self, cmp: Comparator = vclock_compare):
        self._vertices: Dict[str, Vertex] = {}
        # Earlier incarnations of re-created handles: a deleted vertex's
        # record moves here when its handle is reused, so historical
        # snapshots between its creation and deletion still see it.
        self._archive: Dict[str, List[Vertex]] = {}
        self._cmp = cmp
        #: Bumped by every mutation below, whoever calls it: a view built
        #: at one generation answers for the graph while it stands.
        self.generation = 0

    # -- introspection -----------------------------------------------------

    @property
    def comparator(self) -> Comparator:
        return self._cmp

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, handle: str) -> bool:
        return handle in self._vertices

    def raw_vertex(self, handle: str) -> Optional[Vertex]:
        """The underlying record, tombstoned or not."""
        return self._vertices.get(handle)

    def vertices(self) -> Iterator[Vertex]:
        """Every vertex record, current and archived incarnations."""
        for vertex in self._vertices.values():
            yield vertex
        for incarnations in self._archive.values():
            yield from incarnations

    def visible_vertex(
        self,
        handle: str,
        ts: VectorTimestamp,
        cmp: Optional[Comparator] = None,
    ) -> Optional[Vertex]:
        """The incarnation of ``handle`` visible at ``ts``, if any."""
        cmp = self._cmp if cmp is None else cmp
        current = self._vertices.get(handle)
        if current is not None and current.visible_at(ts, cmp):
            return current
        for vertex in reversed(self._archive.get(handle, ())):
            if vertex.visible_at(ts, cmp):
                return vertex
        return None

    def version_count(self) -> int:
        return sum(v.version_count() for v in self.vertices())

    # -- mutations (each stamped with the writer's timestamp) ---------------

    def create_vertex(self, handle: str, ts: VectorTimestamp) -> Vertex:
        self.generation += 1
        existing = self._vertices.get(handle)
        if existing is not None:
            if not existing.span.is_deleted:
                raise ValueError(f"vertex {handle!r} already exists")
            # Keep the dead incarnation for historical snapshots.
            self._archive.setdefault(handle, []).append(existing)
        vertex = Vertex(handle, ts)
        self._vertices[handle] = vertex
        return vertex

    def delete_vertex(self, handle: str, ts: VectorTimestamp) -> None:
        self.generation += 1
        vertex = self._live_vertex(handle)
        for edge in vertex.edges.values():
            if not edge.span.is_deleted:
                edge.span.delete(ts)
        vertex.span.delete(ts)

    def create_edge(
        self, handle: str, src: str, dst: str, ts: VectorTimestamp
    ) -> Edge:
        self.generation += 1
        vertex = self._live_vertex(src)
        edge = Edge(handle, src, dst, ts)
        vertex.add_edge(edge)
        return edge

    def delete_edge(self, src: str, handle: str, ts: VectorTimestamp) -> None:
        self.generation += 1
        edge = self._live_edge(src, handle)
        edge.span.delete(ts)

    def set_vertex_property(
        self, handle: str, key: str, value: Any, ts: VectorTimestamp
    ) -> None:
        self.generation += 1
        self._live_vertex(handle).properties.assign(key, value, ts)

    def delete_vertex_property(
        self, handle: str, key: str, ts: VectorTimestamp
    ) -> bool:
        self.generation += 1
        return self._live_vertex(handle).properties.remove(key, ts)

    def set_edge_property(
        self, src: str, handle: str, key: str, value: Any, ts: VectorTimestamp
    ) -> None:
        self.generation += 1
        self._live_edge(src, handle).properties.assign(key, value, ts)

    def delete_edge_property(
        self, src: str, handle: str, key: str, ts: VectorTimestamp
    ) -> bool:
        self.generation += 1
        return self._live_edge(src, handle).properties.remove(key, ts)

    # -- reads ----------------------------------------------------------

    def at(
        self,
        ts: VectorTimestamp,
        cmp: Optional[Comparator] = None,
        memo_stats=None,
    ) -> "SnapshotView":
        """A consistent read-only view of the graph at ``ts``.

        ``memo_stats`` (an ``OrderingStats``-like object) receives the
        view's snapshot-memo hit counts, if given.
        """
        return SnapshotView(
            self, ts, self._cmp if cmp is None else cmp, memo_stats
        )

    def release_vertex(self, handle: str):
        """Detach a vertex record (with its archived incarnations) for
        migration to another partition.  Unlike :meth:`evict`, the full
        multi-version history travels with it.

        Returns ``(vertex, archived_incarnations)``; raises if the
        handle is unknown.
        """
        self.generation += 1
        vertex = self._vertices.pop(handle, None)
        if vertex is None:
            raise NoSuchVertex(handle)
        return vertex, self._archive.pop(handle, [])

    def adopt_vertex(self, vertex: Vertex, archived=None) -> None:
        """Install a migrated vertex record (see :meth:`release_vertex`)."""
        self.generation += 1
        if vertex.handle in self._vertices:
            raise ValueError(f"vertex {vertex.handle!r} already here")
        self._vertices[vertex.handle] = vertex
        if archived:
            self._archive[vertex.handle] = list(archived)

    def evict(self, handle: str) -> int:
        """Drop a vertex record (all versions) from memory entirely.

        Demand paging support (section 6.1): evicted state is *not*
        deleted — the durable copy lives in the backing store and is
        paged back in on access.  Returns the number of versioned
        records released.
        """
        self.generation += 1
        vertex = self._vertices.pop(handle, None)
        released = vertex.version_count() if vertex is not None else 0
        for old in self._archive.pop(handle, ()):
            released += old.version_count()
        return released

    # -- garbage collection (section 4.5) ---------------------------------

    def collect_below(self, watermark: VectorTimestamp) -> int:
        """Drop tombstoned state invisible to every query at or after the
        watermark (the oldest ongoing node program).  Returns the number of
        records reclaimed."""
        self.generation += 1
        reclaimed = 0
        for handle in list(self._archive):
            incarnations = self._archive[handle]
            kept = [
                v for v in incarnations
                if not v.span.dead_before(watermark, self._cmp)
            ]
            reclaimed += sum(
                v.version_count()
                for v in incarnations
                if v.span.dead_before(watermark, self._cmp)
            )
            if kept:
                self._archive[handle] = kept
            else:
                del self._archive[handle]
        for handle in list(self._vertices):
            vertex = self._vertices[handle]
            if vertex.span.dead_before(watermark, self._cmp):
                reclaimed += vertex.version_count()
                del self._vertices[handle]
                continue
            reclaimed += vertex.properties.collect_below(watermark, self._cmp)
            reclaimed += vertex.collect_archived_below(watermark, self._cmp)
            for edge_handle in list(vertex.edges):
                edge = vertex.edges[edge_handle]
                if edge.span.dead_before(watermark, self._cmp):
                    reclaimed += 1 + edge.properties.version_count()
                    del vertex.edges[edge_handle]
                else:
                    reclaimed += edge.properties.collect_below(
                        watermark, self._cmp
                    )
        return reclaimed

    # -- internals ---------------------------------------------------------

    def _live_vertex(self, handle: str) -> Vertex:
        vertex = self._vertices.get(handle)
        if vertex is None or vertex.span.is_deleted:
            raise NoSuchVertex(handle)
        return vertex

    def _live_edge(self, src: str, handle: str) -> Edge:
        vertex = self._live_vertex(src)
        edge = vertex.get_edge(handle)
        if edge is None or edge.span.is_deleted:
            raise NoSuchEdge(handle)
        return edge


_UNSEEN = object()


class EdgeView:
    """A read-only edge as seen by a snapshot (what node programs get);
    immutable, so one instance serves every reader of the view."""

    __slots__ = ("_edge", "_ts", "_cmp")

    def __init__(self, edge: Edge, ts: VectorTimestamp, cmp: Comparator):
        self._edge = edge
        self._ts = ts
        self._cmp = cmp

    @property
    def handle(self) -> str:
        return self._edge.handle

    @property
    def src(self) -> str:
        return self._edge.src

    @property
    def nbr(self) -> str:
        """The neighbour (destination) vertex handle — paper's ``edge.nbr``."""
        return self._edge.dst

    @property
    def dst(self) -> str:
        return self._edge.dst

    def check(self, key: str, value: Any = None) -> bool:
        """Paper's ``edge.check(prop)``: property visible at the snapshot."""
        return self._edge.properties.check(key, self._ts, self._cmp, value)

    def get_property(self, key: str, default: Any = None) -> Any:
        return self._edge.properties.get(key, self._ts, self._cmp, default)

    def properties(self) -> Dict[str, Any]:
        return self._edge.properties.items_at(self._ts, self._cmp)


class VertexView:
    """A read-only vertex as one query sees it: the shared view's record
    plus this query's ``prog_state`` (installed by the round body).  It
    is built per query and never cached by the shared view, so no
    query's state outlives the query."""

    __slots__ = ("handle", "_vertex", "_view", "prog_state")

    def __init__(self, vertex: Vertex, view: "SnapshotView"):
        self.handle = vertex.handle
        self._vertex = vertex
        self._view = view
        self.prog_state: Any = None

    @property
    def neighbors(self) -> List[EdgeView]:
        """Visible out-edges — paper's ``node.neighbors``."""
        return list(self._view.edges_of(self._vertex))

    def out_degree(self) -> int:
        return len(self._view.edges_of(self._vertex))

    def get_edge(self, handle: str) -> Optional[EdgeView]:
        view = self._view
        edge = self._vertex.visible_edge(handle, view._ts, view._cmp)
        if edge is None:
            return None
        return EdgeView(edge, view._ts, view._cmp)

    def get_property(self, key: str, default: Any = None) -> Any:
        view = self._view
        return self._vertex.properties.get(key, view._ts, view._cmp, default)

    def check(self, key: str, value: Any = None) -> bool:
        view = self._view
        return self._vertex.properties.check(key, view._ts, view._cmp, value)

    def properties(self) -> Dict[str, Any]:
        view = self._view
        return self._vertex.properties.items_at(view._ts, view._cmp)


class SnapshotView:
    """The whole graph at one timestamp, shared by every reader of it.

    A view remembers what it has worked out — each comparator decision
    against its timestamp, each handle's visible incarnation (or None),
    each vertex's visible out-edges as immutable :class:`EdgeView`
    objects — so the readers of one stamp pay for each once.  Those
    answers hold while the graph's ``generation`` is the one the view
    was built at (:meth:`repro.cluster.shard.ShardServer.snapshot` says
    why).
    """

    def __init__(
        self,
        graph: MultiVersionGraph,
        ts: VectorTimestamp,
        cmp: Comparator,
        memo_stats=None,
    ):
        self._graph = graph
        self._ts = ts
        # Every visibility check compares some write timestamp against
        # the one fixed snapshot timestamp; a bounded memo makes the
        # repeats cost one dict lookup.  Safe because comparator
        # decisions never change once made.
        if not isinstance(cmp, MemoizedComparator):
            cmp = MemoizedComparator(cmp, stats=memo_stats)
        self._cmp = cmp
        self._visible: Dict[str, Optional[Vertex]] = {}
        self._edges: Dict[Vertex, tuple] = {}

    def edges_of(self, vertex: Vertex) -> tuple:
        """``vertex``'s visible out-edges, scanned once per view."""
        edges = self._edges.get(vertex)
        if edges is None:
            # Inlined LifeSpan.visible_at: the per-edge call chain
            # dominates this scan.
            ts = self._ts
            cmp = self._cmp
            before = Ordering.BEFORE
            visible = []
            for edge in vertex.edges.values():
                span = edge.span
                if cmp(span.created_at, ts) is not before:
                    continue
                deleted = span.deleted_at
                if deleted is not None and cmp(deleted, ts) is before:
                    continue
                visible.append(EdgeView(edge, ts, cmp))
            for edge in vertex.archived_edges:
                if edge.visible_at(ts, cmp):
                    visible.append(EdgeView(edge, ts, cmp))
            edges = self._edges[vertex] = tuple(visible)
        return edges

    def has_vertex(self, handle: str) -> bool:
        return self.try_vertex(handle) is not None

    def vertex(self, handle: str) -> VertexView:
        view = self.try_vertex(handle)
        if view is None:
            raise NoSuchVertex(handle)
        return view

    def try_vertex(self, handle: str) -> Optional[VertexView]:
        """The view of ``handle``, or None when it is invisible here."""
        vertex = self._visible.get(handle, _UNSEEN)
        if vertex is _UNSEEN:
            vertex = self._visible[handle] = self._graph.visible_vertex(
                handle, self._ts, self._cmp
            )
        return None if vertex is None else VertexView(vertex, self)

    def vertices(self) -> Iterator[VertexView]:
        for vertex in self._graph.vertices():
            if vertex.visible_at(self._ts, self._cmp):
                yield VertexView(vertex, self)

    def edge_count(self) -> int:
        return sum(v.out_degree() for v in self.vertices())

    def vertex_count(self) -> int:
        return sum(1 for _ in self.vertices())
