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

from typing import Any, Dict, Iterator, List, Optional, Tuple

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
        #: at one generation answers for the graph while it stands, and
        #: only a view built at the current one takes or gives the
        #: current answers below.
        self.generation = 0
        # The join of every stamp written here, as (epoch, clocks), and
        # the last stamp joined (the ops of one transaction share it).
        self._frontier: Optional[Tuple[int, Tuple[int, ...]]] = None
        self._joined: Optional[VectorTimestamp] = None
        # The current answers (see :meth:`follows_all`): each handle's
        # visible incarnation (or None), and each vertex's visible
        # out-edges.  A write drops only its own handle's.
        self._current_vertex: Dict[str, Optional[Vertex]] = {}
        self._current_edges: Dict[str, tuple] = {}

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

    def visible_archived(
        self, handle: str, ts: VectorTimestamp, cmp: Comparator
    ) -> Optional[Vertex]:
        """The earlier incarnation of ``handle`` visible at ``ts``, if
        any (for when the current one is not: see
        :meth:`SnapshotView.resolve_into`)."""
        for vertex in reversed(self._archive.get(handle, ())):
            if vertex.visible_at(ts, cmp):
                return vertex
        return None

    def version_count(self) -> int:
        return sum(v.version_count() for v in self.vertices())

    def follows_all(self, ts: VectorTimestamp) -> bool:
        """True when every stamp written here is ordered before ``ts`` by
        vector clock.  Then every record is visible at ``ts`` exactly
        when its latest state says so, whatever the comparator: every
        such stamp reads the same answers while the records stand."""
        frontier = self._frontier
        if frontier is None or frontier[0] < ts.epoch:
            return True
        epoch, joined = frontier
        clocks = ts.clocks
        return (
            epoch == ts.epoch
            and joined != clocks
            and all(map(int.__le__, joined, clocks))
        )

    # -- mutations (each stamped with the writer's timestamp) ---------------

    def create_vertex(self, handle: str, ts: VectorTimestamp) -> Vertex:
        self._write(handle, ts)
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
        self._write(handle, ts)
        vertex = self._live_vertex(handle)
        for edge in vertex.edges.values():
            if not edge.span.is_deleted:
                edge.span.delete(ts)
        vertex.span.delete(ts)

    def create_edge(
        self, handle: str, src: str, dst: str, ts: VectorTimestamp
    ) -> Edge:
        self._write(src, ts)
        vertex = self._live_vertex(src)
        edge = Edge(handle, src, dst, ts)
        vertex.add_edge(edge)
        return edge

    def delete_edge(self, src: str, handle: str, ts: VectorTimestamp) -> None:
        self._write(src, ts)
        edge = self._live_edge(src, handle)
        edge.span.delete(ts)

    def set_vertex_property(
        self, handle: str, key: str, value: Any, ts: VectorTimestamp
    ) -> None:
        self._write(handle, ts)
        self._live_vertex(handle).properties.assign(key, value, ts)

    def delete_vertex_property(
        self, handle: str, key: str, ts: VectorTimestamp
    ) -> bool:
        self._write(handle, ts)
        return self._live_vertex(handle).properties.remove(key, ts)

    def set_edge_property(
        self, src: str, handle: str, key: str, value: Any, ts: VectorTimestamp
    ) -> None:
        self._write(src, ts)
        self._live_edge(src, handle).properties.assign(key, value, ts)

    def delete_edge_property(
        self, src: str, handle: str, key: str, ts: VectorTimestamp
    ) -> bool:
        self._write(src, ts)
        return self._live_edge(src, handle).properties.remove(key, ts)

    # -- reads ----------------------------------------------------------

    def at(
        self,
        ts: VectorTimestamp,
        cmp: Optional[Comparator] = None,
        memo_stats=None,
        carry_stats=None,
    ) -> "SnapshotView":
        """A consistent read-only view of the graph at ``ts``.

        ``memo_stats`` (an ``OrderingStats``-like object) receives the
        view's snapshot-memo hit counts, if given.  With ``carry_stats``
        (a ``ShardStats``-like object) given and ``ts`` following every
        stamp here (:meth:`follows_all`), the view takes the current
        answers and keeps what it works out for later stamps, counting
        each answer it takes in ``carry_stats.answers_carried``.
        """
        view = SnapshotView(
            self, ts, self._cmp if cmp is None else cmp, memo_stats
        )
        if carry_stats is not None and self.follows_all(ts):
            view._carry = (self.generation, carry_stats)
        return view

    def release_vertex(self, handle: str):
        """Detach a vertex record (with its archived incarnations) for
        migration to another partition.  Unlike :meth:`evict`, the full
        multi-version history travels with it.

        Returns ``(vertex, archived_incarnations)``; raises if the
        handle is unknown.
        """
        self.generation += 1
        self._drop_answers(handle)
        vertex = self._vertices.pop(handle, None)
        if vertex is None:
            raise NoSuchVertex(handle)
        return vertex, self._archive.pop(handle, [])

    def adopt_vertex(self, vertex: Vertex, archived=None) -> None:
        """Install a migrated vertex record (see :meth:`release_vertex`)."""
        self.generation += 1
        if vertex.handle in self._vertices:
            raise ValueError(f"vertex {vertex.handle!r} already here")
        self._drop_answers(vertex.handle)
        self._vertices[vertex.handle] = vertex
        if archived:
            self._archive[vertex.handle] = list(archived)
        for record in (vertex, *(archived or ())):
            for stamp in _stamps_of(record):
                self._join(stamp)

    def evict(self, handle: str) -> int:
        """Drop a vertex record (all versions) from memory entirely.

        Demand paging support (section 6.1): evicted state is *not*
        deleted — the durable copy lives in the backing store and is
        paged back in on access.  Returns the number of versioned
        records released.
        """
        self.generation += 1
        self._drop_answers(handle)
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
                self._drop_answers(handle)
                continue
            freed = vertex.properties.collect_below(watermark, self._cmp)
            freed += vertex.collect_archived_below(watermark, self._cmp)
            for edge_handle in list(vertex.edges):
                edge = vertex.edges[edge_handle]
                if edge.span.dead_before(watermark, self._cmp):
                    freed += 1 + edge.properties.version_count()
                    del vertex.edges[edge_handle]
                else:
                    freed += edge.properties.collect_below(
                        watermark, self._cmp
                    )
            if freed:
                reclaimed += freed
                self._drop_answers(handle)
        return reclaimed

    # -- internals ---------------------------------------------------------

    def _write(self, handle: str, ts: VectorTimestamp) -> None:
        """Note a write under ``handle`` stamped ``ts``."""
        self.generation += 1
        self._drop_answers(handle)
        if ts is not self._joined:
            self._join(ts)

    def _join(self, ts: VectorTimestamp) -> None:
        self._joined = ts
        frontier = self._frontier
        if frontier is None or ts.epoch > frontier[0]:
            self._frontier = (ts.epoch, ts.clocks)
        elif ts.epoch == frontier[0]:
            joined = tuple(map(max, frontier[1], ts.clocks))
            self._frontier = (ts.epoch, joined)

    def _drop_answers(self, handle: str) -> None:
        """Forget the current answers for ``handle``: its records changed."""
        self._current_vertex.pop(handle, None)
        self._current_edges.pop(handle, None)

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


def _stamps_of(vertex: Vertex) -> Iterator[VectorTimestamp]:
    """Every stamp ``vertex``'s records carry, its edges' included."""
    for element in (vertex, *vertex.edges.values(), *vertex.archived_edges):
        for span in (element.span, *element.properties.spans()):
            yield span.created_at
            if span.deleted_at is not None:
                yield span.deleted_at


_UNSEEN = object()


class EdgeView:
    """A read-only edge as seen by a snapshot (what node programs get);
    immutable, so one instance serves every reader of the view."""

    __slots__ = ("_edge", "_ts", "_cmp", "nbr")

    def __init__(self, edge: Edge, ts: VectorTimestamp, cmp: Comparator):
        self._edge = edge
        self._ts = ts
        self._cmp = cmp
        #: The neighbour (destination) vertex handle — paper's
        #: ``edge.nbr``; a slot, since every traversal hop reads it.
        self.nbr = edge.dst

    @property
    def handle(self) -> str:
        return self._edge.handle

    @property
    def src(self) -> str:
        return self._edge.src

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

    A view that *carries* (``MultiVersionGraph.at`` with
    ``carry_stats``, at a stamp that follows every stamp in the graph)
    also takes the graph's current answers for incarnations and
    out-edges, and gives it what it works out, while the graph stands
    at its generation: at every such stamp a record reads as its latest
    state, so an answer holds until a write under its handle drops it.
    The out-edges it gives hold the graph's comparator, not its memo.
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
        self._cmp = MemoizedComparator(cmp, ts, stats=memo_stats)
        self._visible: Dict[str, Optional[Vertex]] = {}
        self._edges: Dict[Vertex, tuple] = {}
        # (graph generation, carry stats) when the view carries.
        self._carry: Optional[tuple] = None

    def _carrying(self):
        """The stats that count carried answers while this view may take
        and give the graph's current answers, else None."""
        carry = self._carry
        if carry is not None and carry[0] == self._graph.generation:
            return carry[1]
        return None

    def edges_of(self, vertex: Vertex) -> tuple:
        """``vertex``'s visible out-edges, scanned once per view — and,
        in views that carry, once per write under the vertex."""
        edges = self._edges.get(vertex)
        if edges is None:
            carry = self._carrying()
            if carry is not None:
                current = self._graph._current_edges
                edges = current.get(vertex.handle)
                if edges is not None:
                    carry.answers_carried += 1
                    self._edges[vertex] = edges
                    return edges
            # Inlined LifeSpan.visible_at, creation read from the memo
            # (as in resolve_into, and not through a helper: a call per
            # record is what dominated this scan); a load transaction
            # creates thousands of edges under one stamp.
            ts = self._ts
            cmp = self._cmp
            kept = cmp if carry is None else cmp.wrapped
            decided = cmp.decided
            before = Ordering.BEFORE
            hits = 0
            visible = []
            for edge in vertex.edges.values():
                span = edge.span
                created = span.created_at
                if created._id in decided:
                    hits += 1
                    if decided[created._id] is not before:
                        continue
                elif cmp(created, ts) is not before:
                    continue
                deleted = span.deleted_at
                if deleted is not None and cmp(deleted, ts) is before:
                    continue
                visible.append(EdgeView(edge, ts, kept))
            if hits:
                cmp.count_hits(hits)
            for edge in vertex.archived_edges:
                if edge.visible_at(ts, cmp):
                    visible.append(EdgeView(edge, ts, kept))
            edges = self._edges[vertex] = tuple(visible)
            if carry is not None:
                current[vertex.handle] = edges
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
        batch = {handle: None}
        self.resolve_into(batch)
        return batch[handle]

    def resolve_into(self, batch: Dict[str, Optional[VertexView]]) -> None:
        """Set every key of ``batch`` to its handle's view, or to None
        where the handle is invisible here: :meth:`try_vertex` for a
        round's worth of handles, with no call per handle.

        A handle's first sight in this view takes the graph's current
        answer, in a view that carries one, or else checks its current
        incarnation's lifespan inline, creation read from the memo as
        :meth:`edges_of` does; only a handle whose current incarnation
        is missing or invisible walks the archived ones.
        """
        known = self._visible
        records = self._graph._vertices
        ts = self._ts
        cmp = self._cmp
        decided = cmp.decided
        before = Ordering.BEFORE
        hits = 0
        carry = self._carrying()
        current = None if carry is None else self._graph._current_vertex
        carried = 0
        for handle in batch:
            vertex = known[handle] if handle in known else _UNSEEN
            if vertex is _UNSEEN and current is not None and (
                handle in current
            ):
                vertex = known[handle] = current[handle]
                carried += 1
            if vertex is _UNSEEN:
                vertex = records[handle] if handle in records else None
                if vertex is not None:
                    span = vertex.span
                    created = span.created_at
                    if created._id in decided:
                        hits += 1
                        order = decided[created._id]
                    else:
                        order = cmp(created, ts)
                    deleted = span.deleted_at
                    if order is not before or (
                        deleted is not None and cmp(deleted, ts) is before
                    ):
                        vertex = None
                if vertex is None:
                    vertex = self._graph.visible_archived(handle, ts, cmp)
                known[handle] = vertex
                if current is not None:
                    current[handle] = vertex
            batch[handle] = None if vertex is None else VertexView(vertex, self)
        if hits:
            cmp.count_hits(hits)
        if carried:
            carry.answers_carried += carried

    def vertices(self) -> Iterator[VertexView]:
        for vertex in self._graph.vertices():
            if vertex.visible_at(self._ts, self._cmp):
                yield VertexView(vertex, self)

    def edge_count(self) -> int:
        return sum(v.out_degree() for v in self.vertices())

    def vertex_count(self) -> int:
        return sum(1 for _ in self.vertices())
