"""The seed per-vertex executor, kept as a test reference.

Before rounds existed a node program ran off a deque: pop one hop,
resolve that one vertex, run it, append its next hops.  ``src/`` now
executes every program through the one round body
(:func:`repro.programs.framework.run_round`); this loop stays here, in
its original shape, so the differential suite can hold the round body to
it — a round is exactly the contiguous run of same-depth entries this
deque pops, so results, read sets, states and halts must agree (and,
for programs without ``dedup_hops``, the visit and hop counts too).

``resolve(handle)`` returns the vertex view at the program's snapshot,
or None when the vertex is invisible there.  :func:`build_database` is
the seeded multi-shard graph the differential suite and the perf guard
run programs over.
"""

import random
from collections import deque
from typing import List, Tuple

from repro.db import Weaver, WeaverConfig
from repro.errors import ProgramError
from repro.programs.framework import ProgramResult
from repro.programs.state import ProgramContext


def execute_sequential(
    program, start, resolve, ts, query_id=0, max_visits=10_000_000
):
    """Run ``program`` from ``start`` one vertex at a time."""
    ctx = ProgramContext(query_id, ts)
    frontier = deque(start)
    visits = 0
    while frontier and not ctx.halted:
        handle, params = frontier.popleft()
        if visits >= max_visits:
            raise ProgramError("visit budget exhausted")
        visits += 1
        ctx.read_set.add(handle)
        node = resolve(handle)
        if node is None:
            program.on_missing(handle, params, ctx)
            continue
        if handle not in ctx.states:
            ctx.states[handle] = program.init_state()
        node.prog_state = ctx.states[handle]
        ctx.vertices_visited += 1
        hops = list(program.run(node, params, ctx) or ())
        for hop in hops:
            if not (
                isinstance(hop, tuple) and len(hop) == 2
                and isinstance(hop[0], str)
            ):
                raise ProgramError(
                    f"{program.name} returned a bad next-hop: {hop!r}"
                )
        ctx.hops += len(hops)
        frontier.extend(hops)
    return ProgramResult(ctx, program.returns_state)


def build_database(
    num_vertices: int = 800,
    avg_degree: int = 12,
    num_shards: int = 4,
    num_gatekeepers: int = 2,
    seed: int = 13,
    ops_per_tx: int = 200,
) -> Tuple[Weaver, List[str]]:
    """A multi-shard Weaver with a seeded random connected graph.

    A spanning tree from the first vertex guarantees the whole graph is
    BFS-reachable; extra random edges raise the average out-degree to
    ``avg_degree`` so traversals revisit vertices from many parents and
    same-round hops dedup.
    """
    rng = random.Random(seed)
    db = Weaver(
        WeaverConfig(
            num_shards=num_shards,
            num_gatekeepers=num_gatekeepers,
            partitioner="hash",
        )
    )
    handles = [f"n{i}" for i in range(num_vertices)]

    def batched(make_ops) -> None:
        pending = 0
        tx = db.begin_transaction()
        for op in make_ops:
            op(tx)
            pending += 1
            if pending >= ops_per_tx:
                tx.commit()
                tx = db.begin_transaction()
                pending = 0
        if pending:
            tx.commit()
        else:
            tx.abort()

    batched(
        (lambda t, h=h: t.create_vertex(h)) for h in handles
    )
    edge_ops = []
    seen = set()
    for i in range(1, num_vertices):
        parent = handles[rng.randrange(i)]
        edge_ops.append((parent, handles[i]))
        seen.add((parent, handles[i]))
    extra = num_vertices * avg_degree - len(edge_ops)
    while extra > 0:
        src, dst = rng.sample(handles, 2)
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        edge_ops.append((src, dst))
        extra -= 1
    batched(
        (lambda t, s=s, d=d: t.create_edge(s, d)) for s, d in edge_ops
    )
    return db, handles
