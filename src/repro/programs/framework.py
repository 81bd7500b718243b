"""The node-program execution engine (sections 2.3, 4.1).

A node program is a vertex-level computation in the scatter-gather style:
it receives a read-only :class:`~repro.graph.mvgraph.VertexView` (bound to
the program's snapshot timestamp) plus parameters from the previous hop,
reads the vertex's edges and attributes, may mutate its per-query
``prog_state``, emit results, and returns the list of (vertex, params)
pairs to visit next.  A vertex may be visited any number of times; the
application directs all propagation.

The executor is routing-agnostic: it pulls vertices through a resolver
supplied by the database layer, which is where shard routing and the
wait-for-preceding-transactions logic live.  A resolver exposes
``resolve_many(handles) -> dict`` (e.g.
:class:`~repro.programs.routing.ShardSnapshotResolver`); a bare callable
``resolve(handle) -> Optional[VertexView]`` is adapted to that shape, so
the engine stays testable against a bare in-memory graph.

Execution is **round-based scatter-gather**, written once in
:func:`run_round`: the frontier is processed one BFS round at a time and
each round's handles resolve as one batch, which is what lets the
routing layer group them by owning shard and read each shard's view of
the stamp once per query — the paper's shard-to-shard batch
propagation.  :class:`ProgramExecutor` and the
shard-resident engine (:mod:`repro.cluster.worker`) are its two callers;
each adds only its frontier exchange.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from ..core.vclock import VectorTimestamp
from ..errors import ProgramError
from ..graph.mvgraph import VertexView
from .state import ProgramContext

NextHops = Iterable[Tuple[str, Any]]
Resolver = Callable[[str], Optional[VertexView]]


class NodeProgram:
    """Base class for node programs.

    Subclasses override :meth:`run` and usually :meth:`init_state`.  The
    paper's BFS example (Fig 3) maps directly::

        class Bfs(NodeProgram):
            def init_state(self):
                return SimpleNamespace(visited=False)

            def run(self, node, params, ctx):
                nxt = []
                if not node.prog_state.visited:
                    for edge in node.neighbors:
                        if edge.check(params.edge_prop):
                            nxt.append((edge.nbr, params))
                    node.prog_state.visited = True
                return nxt
    """

    #: Stable name used for caching and reporting.
    name = "node_program"

    #: Declares that revisiting a vertex with *identical params* in the
    #: same round is a no-op (visited-bit traversals), so the executor may
    #: drop same-round duplicate hops before resolving them.  Off by
    #: default: the framework promises "a vertex may be visited any
    #: number of times", and programs that emit per visit rely on it.
    dedup_hops = False

    #: Declares that the caller reads the per-vertex ``prog_state`` the
    #: program leaves behind (``ProgramResult.states``).  Off by default:
    #: state lives with the query at the shard that ran it and is dropped
    #: when the query ends (sections 2.3, 4.5); a result carries what the
    #: program emitted.
    returns_state = False

    def init_state(self) -> Any:
        """A fresh per-vertex ``prog_state`` (default: None)."""
        return None

    def run(
        self, node: VertexView, params: Any, ctx: ProgramContext
    ) -> NextHops:
        raise NotImplementedError

    def on_missing(self, handle: str, params: Any, ctx: ProgramContext) -> None:
        """Hook invoked when a next-hop vertex is invisible at the
        snapshot (deleted concurrently, or a dangling edge); default is
        to skip it silently, which is what traversals want."""


class ProgramStats:
    """Counters for the scatter-gather execution pipeline.

    Absorbed into the metrics registry under ``program.*`` (see
    ``repro.obs.collect``).  The headline pair is ``snapshots_created``
    vs ``snapshot_reuse_hits``: per query the batched path asks for
    O(shards) snapshot views where the seed path built O(vertices
    visited), and every resolution served by a view already asked for
    counts as one reuse hit.
    """

    def __init__(self) -> None:
        self.executions = 0            # programs driven to completion
        self.batch_rounds = 0          # scatter-gather rounds processed
        self.shard_batches = 0         # (shard, round) batch resolutions
        self.vertices_resolved = 0     # resolutions through the batch path
        self.snapshots_created = 0     # (query, shard) views asked for
        self.snapshot_reuse_hits = 0   # resolutions on a reused view
        self.dedup_hits = 0            # same-round duplicate hops dropped
        self.round_messages_saved = 0  # per-vertex msgs a batch replaced
        # Programs that sent no heartbeats: they ran at (a reused read
        # stamp) or before (a repeated ``at=``) the readiness mark.
        self.readiness_fastpath_hits = 0
        self.readiness_storms = 0      # announce+NOP storms performed

    def reset(self) -> None:
        self.__init__()


class ProgramResult:
    """Outcome of one node-program execution.

    ``states`` holds per-vertex ``prog_state`` only for a program that
    declares ``returns_state``, on every deployment: whoever makes a
    result from a context the program ran in passes the declaration, and
    the resident engine applies the same rule before a fragment leaves
    its shard (``ResidentEngine._fragment``).
    """

    def __init__(self, ctx: ProgramContext, returns_state: bool = True):
        self.query_id = ctx.query_id
        self.timestamp = ctx.ts
        self.results = ctx.results
        self.states = ctx.states if returns_state else {}
        self.vertices_visited = ctx.vertices_visited
        self.hops = ctx.hops
        self.halted = ctx.halted
        self.read_set = ctx.read_set
        self.rounds = ctx.rounds

    @property
    def value(self) -> Any:
        """The single emitted value, for programs that emit exactly one."""
        if len(self.results) != 1:
            raise ProgramError(
                f"expected exactly one result, got {len(self.results)}"
            )
        return self.results[0]


def _params_key(params: Any) -> Optional[Hashable]:
    """A value-equality key for hop params, or None when they defy
    hashing.

    Params are compared by *content*, not identity: BFS-style programs
    mint a fresh namespace per parent, and the whole point of same-round
    dedup is collapsing hops to one vertex from different parents at the
    same depth.
    """
    if isinstance(params, SimpleNamespace):
        # Attribute names are unique, so the sort never compares values.
        items = tuple(sorted(vars(params).items()))
        try:
            hash(items)
        except TypeError:
            return None
        return (True, items)
    try:
        hash(params)
    except TypeError:
        return None
    return (False, params)


def dedup_round(entries: List[tuple], stats: ProgramStats) -> List[tuple]:
    """Drop same-round repeats of one (vertex, params) hop.

    First occurrence wins; hops whose params resist value-hashing pass
    through untouched.  ``stats.dedup_hits`` counts the drops.
    """
    seen: set = set()
    kept: List[tuple] = []
    # Params content keys memoized by object identity: one program run
    # emits many hops sharing one params object, and the ids stay
    # unique for the pass because ``entries`` keeps every object alive.
    # Distinct contents are interned to small ints so the seen-set
    # hashes (handle, int) pairs, not nested tuples.
    param_key_ids: Dict[int, Optional[int]] = {}
    interned: Dict[Hashable, int] = {}
    missing = param_key_ids.get
    for entry in entries:
        params = entry[1]
        pid = id(params)
        kid = missing(pid, -1)
        if kid == -1:
            pkey = _params_key(params)
            if pkey is None:
                kid = None
            else:
                kid = interned.setdefault(pkey, len(interned))
            param_key_ids[pid] = kid
        if kid is None:
            kept.append(entry)
            continue
        key = (entry[0], kid)
        if key not in seen:
            seen.add(key)
            kept.append(entry)
    stats.dedup_hits += len(entries) - len(kept)
    return kept


VISIT_BUDGET_EXHAUSTED = "visit budget exhausted"
_NO_STATE = object()
# What a program's hops may come back as without being copied.
_SEQUENCES = (list, tuple)


def run_round(
    program: NodeProgram,
    frontier: List[tuple],
    resolve_many: Callable[[List[str]], Dict[str, Optional[VertexView]]],
    ctx: ProgramContext,
    stats: ProgramStats,
    deliver: Callable[[tuple, Optional[VertexView], List[tuple]], None],
) -> Optional[tuple]:
    """One scatter-gather round (sections 2.3, 4.1) — the only place a
    frontier is executed.

    ``frontier`` entries are tuples that start ``(handle, params)``;
    whatever follows (the resident exchange's order key) rides along.
    Same-round repeats are dropped for programs declaring
    ``dedup_hops``, every handle resolves in one batch, and the entries
    run in order, each handed to ``deliver(entry, node, hops)`` — the
    caller's frontier exchange, with the entry's validated next hops
    (empty for a vertex invisible at the snapshot, which goes to
    ``on_missing`` instead of ``run``).  Returns the entry that halted the
    program (nothing after it ran), else None.  ``ctx.visits_left`` is
    the runaway guard: the round raises before running one entry more.
    """
    if program.dedup_hops:
        frontier = dedup_round(frontier, stats)
    ctx.rounds += 1
    stats.batch_rounds += 1
    views_get = resolve_many([entry[0] for entry in frontier]).get
    read = ctx.read_set.add
    states = ctx.states
    for entry in frontier:
        if ctx.visits_left <= 0:
            raise ProgramError(VISIT_BUDGET_EXHAUSTED)
        ctx.visits_left -= 1
        handle = entry[0]
        read(handle)
        node = views_get(handle)
        if node is None:
            program.on_missing(handle, entry[1], ctx)
            deliver(entry, None, ())
            # A missing vertex does not observe a mid-round halt: whatever
            # its ``on_missing`` did, the round goes on to the next entry.
            continue
        state = states.get(handle, _NO_STATE)
        if state is _NO_STATE:
            state = states[handle] = program.init_state()
        node.prog_state = state
        ctx.vertices_visited += 1
        hops = program.run(node, entry[1], ctx)
        if hops.__class__ not in _SEQUENCES:
            hops = () if hops is None else list(hops)
        for hop in hops:
            if not (isinstance(hop, tuple) and len(hop) == 2
                    and isinstance(hop[0], str)):
                raise ProgramError(
                    f"{program.name} returned a bad next-hop: {hop!r}"
                )
        ctx.hops += len(hops)
        deliver(entry, node, hops)
        if ctx.halted:
            return entry
    return None


class ProgramExecutor:
    """Breadth-first driver of a node program across the graph."""

    def __init__(self, max_visits: int = 10_000_000):
        self._max_visits = max_visits
        self.stats = ProgramStats()

    def execute(
        self,
        program: NodeProgram,
        start: Iterable[Tuple[str, Any]],
        resolve: Resolver,
        ts: VectorTimestamp,
        query_id: int = 0,
    ) -> ProgramResult:
        """Run ``program`` from the ``start`` frontier to completion.

        ``resolve.resolve_many(handles)`` maps one round's handles to
        their vertex views at the program's snapshot (None where the
        vertex is invisible there); a bare ``resolve(handle)`` callable
        is asked once per entry instead.
        Propagation ends when the frontier drains, the program halts, or
        the visit budget (a runaway guard) is exhausted.
        """
        resolve_many = getattr(resolve, "resolve_many", None)
        if resolve_many is None:
            def resolve_many(handles):
                return {handle: resolve(handle) for handle in handles}
        ctx = ProgramContext(query_id, ts)
        ctx.visits_left = self._max_visits
        frontier: List[Tuple[str, Any]] = list(start)
        while frontier and not ctx.halted:
            # The exchange: this round's hops are the next frontier.
            next_frontier: List[Tuple[str, Any]] = []
            run_round(
                program, frontier, resolve_many, ctx, self.stats,
                lambda _entry, _node, hops: next_frontier.extend(hops),
            )
            frontier = next_frontier
        self.stats.executions += 1
        return ProgramResult(ctx, program.returns_state)
