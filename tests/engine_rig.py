"""A hand-driven ``ResidentEngine`` on one in-process shard.

One shard, one gatekeeper, no peers: every way out but the reply is
unused, so a program's round runs as its ``program_start`` frame is
dispatched.  The shared-snapshot cases, the round-counter pins, the
one-pass read cases and the perf guard's call-event ceilings all drive
this one rig; :func:`matches_weaver` holds a reply to the in-process
executor's result.
"""

from repro.cluster.messages import ProgramStart, QueuedTransaction
from repro.cluster.shard import ShardServer
from repro.cluster.worker import ResidentEngine, ShardEndpoint
from repro.core.gatekeeper import Gatekeeper
from repro.core.oracle import TimelineOracle

from .wire_fixtures import order_key


class Engine(ResidentEngine):
    """:meth:`apply` commits operations and readies the shard for a
    stamp after them; :meth:`start` is a ``program_start`` frame at a
    stamp, and :meth:`read` dispatches one and returns its results."""

    def __init__(self):
        self.replies = []
        self.gk = Gatekeeper(0, 1)
        self.seqno = 0
        super().__init__(
            ShardEndpoint(ShardServer(0, 1, TimelineOracle())), 0,
            lambda handle: 0,
        )

    def _reply(self, conn, rid, result=None, error=None):
        self.replies.append((rid, result, error))

    def apply(self, *operations):
        seqno = self.seqno
        self.seqno += 2
        write = QueuedTransaction(
            self.gk.issue_timestamp(), operations, seqno=seqno,
            tiebreak=seqno,
        )
        ts = self.gk.issue_timestamp()
        nop = QueuedTransaction(
            self.gk.make_nop(), seqno=seqno + 1, tiebreak=seqno + 1
        )
        self._dispatch("gk0", {"k": "b", "m": [
            ("enqueue", (0, write)), ("enqueue", (0, nop)),
            ("advance_to", ts),
        ]})
        return ts

    def start(self, ts, qid, program, handle, start_params=None):
        return {"k": "r", "id": qid, "kind": "program_start",
                "p": ProgramStart(ts, qid, program, (
                    (handle, start_params, order_key(0)),
                ))}

    def read(self, ts, program, handle, start_params=None):
        qid = len(self.replies) + 1
        self._dispatch("client", self.start(
            ts, qid, program, handle, start_params
        ))
        self.drain()
        rid, result, error = self.replies[-1]
        assert (rid, error) == (qid, None) and "error" not in result, result
        return result["results"]

    @property
    def shard(self):
        return self.worker.shard


def random_graph(vertices=400, degree=6, seed=7):
    """The operations of a graph of ``vertices`` with ``degree`` random
    out-edges each: the traversal the perf guard counts call events on
    (a depth-2 ``Bfs`` from ``v0`` runs 43 frontier entries)."""
    import random

    from repro.db import operations as ops

    rng = random.Random(seed)
    writes = [ops.CreateVertex(f"v{i}") for i in range(vertices)]
    for i in range(vertices):
        for j, dst in enumerate(rng.sample(range(vertices), degree)):
            writes.append(ops.CreateEdge(f"e{i}.{j}", f"v{i}", f"v{dst}"))
    return tuple(writes)


def matches_weaver(payload, writes, program, start, start_params=None,
                   then=()):
    """The engine's reply equals ``Weaver.run_program``'s result on a
    one-shard ``Weaver`` that committed ``writes`` (and then ``then``),
    run from ``start`` (a handle, or (handle, params) pairs), field by
    field."""
    from repro.db import Weaver, WeaverConfig
    from repro.db.database import WritePath

    db = Weaver(WeaverConfig(num_shards=1))
    for batch in (writes, then):
        tx = db.begin_transaction()
        for op in batch:
            tx.record(op)
        tx.commit()
    expected = db.run_program(program, start, start_params)
    got = WritePath._program_result(payload)
    for field in ("results", "read_set", "vertices_visited", "hops",
                  "halted", "rounds", "states"):
        assert getattr(got, field) == getattr(expected, field), field
