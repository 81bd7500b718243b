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
or None when the vertex is invisible there.
"""

from collections import deque

from repro.errors import ProgramError
from repro.programs.framework import ProgramResult, run_entry
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
        node = resolve(handle)
        hops = run_entry(program, handle, params, node, ctx)
        ctx.hops += len(hops)
        frontier.extend(hops)
    return ProgramResult(ctx, program.returns_state)
