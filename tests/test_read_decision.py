"""One read decision, two clocks.

The clockless half of a read — the program cache lookup, the stamp
choice (``at=``, the reused read stamp, or a fresh one) and the finish —
is one copy in ``WritePath``, and so is the readiness rule (one
heartbeat round per fresh stamp): the blocking ``Weaver`` delivers it
at once, the discrete-event ``SimulatedWeaver`` parks programs at its
shards until it arrives.  A seeded sequential script of commits,
reads, cached reads and one historical read must give both the same
results and the same decisions: fresh and reused stamps, reuses past a
commit, cache hits, and the gatekeeper each stamp came from (a cache hit
moves no round robin).
"""

import random

import pytest

from repro.db import Weaver, WeaverConfig
from repro.db import operations as ops
from repro.programs import Bfs, GetEdges, GetNode, params
from repro.sim.clock import USEC
from repro.sim.deployment import SimulatedWeaver

VERTICES = [f"v{i}" for i in range(4)]
CONFIG = dict(num_gatekeepers=2, num_shards=2, enable_program_cache=True)


def script(seed, length=80):
    """Ops as data: ("tx", operations) or ("read", program, start,
    params, use_cache, at_index), where ``at_index`` names an earlier
    read whose stamp the read runs at."""
    rng = random.Random(seed)
    steps = [("tx", [ops.CreateVertex(v) for v in VERTICES])]
    edges = 0
    reads = 0
    at_read = length // 2
    for i in range(length):
        roll = rng.random()
        if i == at_read and reads:
            steps.append(("read", GetNode(), rng.choice(VERTICES), None,
                          False, rng.randrange(reads)))
            reads += 1
        elif roll < 0.3:
            src, dst = rng.choice(VERTICES), rng.choice(VERTICES)
            if rng.random() < 0.5:
                operation = ops.CreateEdge(f"e{edges}", src, dst)
                edges += 1
            else:
                operation = ops.SetVertexProperty(src, "w", i)
            steps.append(("tx", [operation]))
        else:
            program, prog_params = rng.choice([
                (GetNode(), None), (GetEdges(), None),
                (Bfs(), params(depth=1)),
            ])
            steps.append(("read", program, rng.choice(VERTICES),
                          prog_params, rng.random() < 0.5, None))
            reads += 1
    return steps


def run_on_weaver(steps):
    db = Weaver(WeaverConfig(**CONFIG))
    stamps, results = [], []
    for step in steps:
        if step[0] == "tx":
            tx = db.begin_transaction()
            for operation in step[1]:
                tx.record(operation)
            results.append(("tx", tx.commit().issuer))
            continue
        _, program, start, prog_params, use_cache, at_index = step
        at = stamps[at_index] if at_index is not None else None
        result = db.run_program(
            program, start, prog_params, at=at, use_cache=use_cache
        )
        stamps.append(result.timestamp)
        results.append(result.results)
    return db, results


def run_on_twin(steps):
    sw = SimulatedWeaver(
        WeaverConfig(**CONFIG),
        gc_period=1e6,  # no GC pass inside the script
    )
    # Long enough for the commit's announce round to land everywhere,
    # so a later commit's stamp dominates every earlier stamp, as a
    # blocking coordinator's synchronous rounds make it.
    settle = 3 * sw.timer_period + 100 * USEC
    stamps, results = [], []
    for step in steps:
        if step[0] == "tx":
            box = {}
            sw.submit_transaction(
                step[1],
                callback=lambda ok, value: box.update(ok=ok, ts=value),
            )
            sw.run(settle)
            assert box["ok"]
            results.append(("tx", box["ts"].issuer))
            continue
        _, program, start, prog_params, use_cache, at_index = step
        at = stamps[at_index] if at_index is not None else None
        replies = []
        sw.submit_program(
            program, start, prog_params, callback=replies.append,
            at=at, use_cache=use_cache,
        )
        sw.run_until_quiet()
        sw.run(settle)
        (result,) = replies
        stamps.append(result.timestamp)
        results.append(result.results)
    return sw, results


def decisions(db):
    stamps = db.tracer.spans(kind="program.stamp")
    snap = db.metrics.snapshot()
    return {
        "fresh": sum(span.attr("reused") is None for span in stamps),
        "reused": sum(span.attr("reused") is True for span in stamps),
        "across_commits": snap["program.readiness_reuses_across_commits"],
        "cache_hits": snap["program.cache.hits"],
        "runs": db.programs_run,
        "issuers": [span.node for span in stamps],
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_script_two_clocks(seed):
    steps = script(seed)
    weaver, direct = run_on_weaver(steps)
    twin, simulated = run_on_twin(steps)
    assert simulated == direct
    counts = decisions(weaver)
    assert decisions(twin) == counts
    # The script exercises every branch of the decision.
    assert all(counts[name] for name in
               ("fresh", "reused", "across_commits", "cache_hits"))
