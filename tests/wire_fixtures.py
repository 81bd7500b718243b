"""The canonical read, as literals: the frames one ``get_edges`` on a
two-shard ``ProcessWeaver`` puts on the wire, captured from a live
``tao_read`` deployment and written out by hand so no deployment is
needed to rebuild them.

Shared by ``tests/test_wire.py`` (golden bytes: an accidental layout
change fails without a version bump), ``benchmarks/test_micro_wire.py``
(µs and bytes per read) and ``benchmarks/test_perf_guard.py`` (bytes
pinned, call events under a ceiling).
"""

from types import SimpleNamespace

from repro.cluster import wire
from repro.cluster.messages import (
    FrontierForward,
    ProgramStart,
    QueuedTransaction,
    pack_level,
)
from repro.core.vclock import VectorTimestamp

READ_TS = VectorTimestamp(epoch=0, clocks=(841, 840), issuer=0)
NOP_TS = (
    VectorTimestamp(epoch=0, clocks=(842, 840), issuer=0),
    VectorTimestamp(epoch=0, clocks=(842, 841), issuer=1),
)


def order_key(*levels) -> bytes:
    """The order key of a hop reached through ``levels``."""
    return b"".join(pack_level(level, "levels") for level in levels)


def _nops(tiebreaks):
    """The NOP chain that makes a shard ready: one per gatekeeper."""
    return [
        ("enqueue", (gatekeeper, QueuedTransaction(
            ts=NOP_TS[gatekeeper], operations=(), seqno=590,
            tiebreak=tiebreak, trace_id=None,
        )))
        for gatekeeper, tiebreak in enumerate(tiebreaks)
    ]


#: ``"b"``: the one-way frame to the shard that does not own the vertex —
#: two NOP ``QueuedTransaction``s and the ``advance_to`` timestamp.
BATCH = {"k": "b", "m": _nops((2361, 2363)) + [("advance_to", READ_TS)]}

#: ``"r"``: the request to the owning shard — a ``ProgramStart`` with the
#: same three buffered one-way messages riding in ``"m"``.
REQUEST = {
    "k": "r", "id": 242, "kind": "program_start",
    "p": ProgramStart(
        ts=READ_TS, query_id=501, program="get_edges",
        frontier=(("v955", SimpleNamespace(edge_prop=None), order_key(0)),),
        trace_id=681, max_visits=10_000_000, init=None,
    ),
    "m": _nops((2360, 2362)) + [("advance_to", READ_TS)],
}

#: ``"p"``: the reply — the nine-key result payload ``worker._finish``
#: builds (``get_edges`` does not declare ``returns_state``, so
#: ``states`` is empty), and the worker's trace spans riding in ``"ev"``
#: as the ``(count, bytes)`` record ``BufferTracer.drain`` encodes.
REPLY = {
    "k": "p", "id": 242,
    "p": {
        "query_id": 501, "ts": READ_TS,
        "results": [[
            {"handle": "e7606", "nbr": "v41", "properties": {}},
            {"handle": "e7608", "nbr": "v11", "properties": {}},
            {"handle": "e9313", "nbr": "v1168", "properties": {}},
        ]],
        "states": {}, "vertices_visited": 1, "hops": 0,
        "halted": False, "read_set": ["v955"], "rounds": 1,
    },
    "ev": (1, wire.encode([
        (681, "program.round", "shard0",
         {"query_id": 501, "round": 0, "frontier": 1, "shard": 0}),
    ])),
}

_HOP = dict(depth=1, edge_prop=None, max_depth=2)

#: A peer-to-peer frontier frame of a ``traverse`` (not part of a
#: single-vertex read; pinned because it is the resident engine's bulk).
FORWARD = {"k": "b", "m": [("forward", FrontierForward.from_rows(454, 1, [
    ("v451", SimpleNamespace(**_HOP), order_key(0, 0)),
    ("v447", SimpleNamespace(**_HOP), order_key(0, 1)),
    ("v81", SimpleNamespace(**_HOP), order_key(0, 2, 7)),
]))]}


def _forward_64():
    """The round-2 forward of a depth-2 ``traverse``: 8 parents × 8
    hops, each parent's hops sharing one params object, 3-level keys."""
    rows = []
    for parent in range(8):
        shared = SimpleNamespace(depth=2, edge_prop=None, max_depth=2)
        rows += [
            (f"v{(131 * (8 * parent + hop) + 7) % 2000}", shared,
             order_key(0, parent, hop))
            for hop in range(8)
        ]
    return FrontierForward.from_rows(454, 2, rows)


#: The frame a traversal actually sends: what ``test_perf_guard.py``
#: pins by bytes and call events and ``test_micro_wire.py`` times.
FORWARD_64 = {"k": "b", "m": [("forward", _forward_64())]}

#: The three frames of one read, in the order the client produces them.
#: Each is encoded once and decoded once: six codec calls per read.
CANONICAL_READ = (BATCH, REQUEST, REPLY)

FRAMES = {
    "batch": BATCH, "request": REQUEST, "reply": REPLY, "forward": FORWARD,
}

#: ``wire.encode(frame).hex()`` at WIRE_VERSION 7.  Regenerate only
#: together with a version bump, or for a fixture above that changed
#: what it says (its other bytes must stay as they were).
GOLDEN_HEX = {
    "batch": (
        "07440201016b6d7301626c0374027307656e7175657565740269000000000000"
        "000080560200000000000000000000000000000000000000034a000000000000"
        "0348740069000000000000024e6900000000000009394e74027307656e717565"
        "7565740269000000000000000180560200000000000000000000000001000000"
        "000000034a0000000000000349740069000000000000024e6900000000000009"
        "3b4e7402730a616476616e63655f746f56020000000000000000000000000000"
        "000000000003490000000000000348"
    ),
    "request": (
        "07440501020401016b69646b696e64706d7301726900000000000000f2730d70"
        "726f6772616d5f73746172748256020000000000000000000000000000000000"
        "0000034900000000000003486900000000000001f573096765745f6564676573"
        "74017403730476393535700109656467655f70726f704e620400000000690000"
        "0000000002a96900000000009896804e6c0374027307656e7175657565740269"
        "000000000000000080560200000000000000000000000000000000000000034a"
        "0000000000000348740069000000000000024e6900000000000009384e740273"
        "07656e7175657565740269000000000000000180560200000000000000000000"
        "000001000000000000034a0000000000000349740069000000000000024e6900"
        "0000000000093a4e7402730a616476616e63655f746f56020000000000000000"
        "000000000000000000000003490000000000000348"
    ),
    "reply": (
        "074404010201026b69647065767301706900000000000000f244090802070610"
        "0406080671756572795f69647473726573756c74737374617465737665727469"
        "6365735f76697369746564686f707368616c746564726561645f736574726f75"
        "6e64736900000000000001f55602000000000000000000000000000000000000"
        "00034900000000000003486c016c03440306030a68616e646c656e627270726f"
        "706572746965737305653736303673037634316400440306030a68616e646c65"
        "6e627270726f706572746965737305653736303873037631316400440306030a"
        "68616e646c656e627270726f7065727469657373056539333133730576313136"
        "3864006400690000000000000001690000000000000000466c01730476393535"
        "69000000000000000174026900000000000000016269076c0174046900000000"
        "000002a9730d70726f6772616d2e726f756e6473067368617264304404080508"
        "0571756572795f6964726f756e6466726f6e7469657273686172646900000000"
        "000001f5690000000000000000690000000000000001690000000000000000"
    ),
    "forward": (
        "07440201016b6d7301626c0174027307666f7277617264836900000000000001"
        "c669000000000000000155030404037634353176343437763831740362080000"
        "00000000000062080000000000000001620c0000000000000002000000077403"
        "70030509096465707468656467655f70726f706d61785f646570746869000000"
        "00000000014e69000000000000000270030509096465707468656467655f7072"
        "6f706d61785f64657074686900000000000000014e6900000000000000027003"
        "0509096465707468656467655f70726f706d61785f6465707468690000000000"
        "0000014e690000000000000002620c000000000000000100000002"
    ),
}
