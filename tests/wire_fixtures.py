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

from repro.cluster.messages import (
    FrontierForward,
    ProgramStart,
    QueuedTransaction,
)
from repro.core.vclock import VectorTimestamp

READ_TS = VectorTimestamp(epoch=0, clocks=(841, 840), issuer=0)
NOP_TS = (
    VectorTimestamp(epoch=0, clocks=(842, 840), issuer=0),
    VectorTimestamp(epoch=0, clocks=(842, 841), issuer=1),
)


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
        frontier=(("v955", SimpleNamespace(edge_prop=None), (0,)),),
        trace_id=681, cache_tail=None, max_visits=10_000_000,
    ),
    "m": _nops((2360, 2362)) + [("advance_to", READ_TS)],
}

#: ``"p"``: the reply — the nine-key result payload ``worker._finish``
#: builds, and the worker's trace events riding in ``"ev"``.
REPLY = {
    "k": "p", "id": 242,
    "p": {
        "query_id": 501, "ts": READ_TS,
        "results": [[
            {"handle": "e7606", "nbr": "v41", "properties": {}},
            {"handle": "e7608", "nbr": "v11", "properties": {}},
            {"handle": "e9313", "nbr": "v1168", "properties": {}},
        ]],
        "states": {"v955": None}, "vertices_visited": 1, "hops": 0,
        "halted": False, "read_set": ["v955"], "rounds": 1,
    },
    "ev": [(681, "program.round", "shard0",
            {"query_id": 501, "round": 0, "frontier": 1, "shard": 0})],
}

_HOP = dict(depth=1, edge_prop=None, max_depth=2)

#: A peer-to-peer frontier frame of a ``traverse`` (not part of a
#: single-vertex read; pinned because it is the resident engine's bulk).
FORWARD = {"k": "b", "m": [("forward", FrontierForward(
    query_id=454, round=1,
    hops=(
        ("v451", SimpleNamespace(**_HOP), (0, 0)),
        ("v447", SimpleNamespace(**_HOP), (0, 1)),
        ("v81", SimpleNamespace(**_HOP), (0, 2, 7)),
    ),
))]}

#: The three frames of one read, in the order the client produces them.
#: Each is encoded once and decoded once: six codec calls per read.
CANONICAL_READ = (BATCH, REQUEST, REPLY)

FRAMES = {
    "batch": BATCH, "request": REQUEST, "reply": REPLY, "forward": FORWARD,
}

#: ``wire.encode(frame).hex()`` at WIRE_VERSION 3.  Regenerate only
#: together with a version bump.
GOLDEN_HEX = {
    "batch": (
        "03440201016b6d7301626c0374027307656e7175657565740269000000000000"
        "000080560200000000000000000000000000000000000000034a000000000000"
        "0348740069000000000000024e6900000000000009394e74027307656e717565"
        "7565740269000000000000000180560200000000000000000000000001000000"
        "000000034a0000000000000349740069000000000000024e6900000000000009"
        "3b4e7402730a616476616e63655f746f56020000000000000000000000000000"
        "000000000003490000000000000348"
    ),
    "request": (
        "03440501020401016b69646b696e64706d7301726900000000000000f2730d70"
        "726f6772616d5f73746172748456020000000000000000000000000000000000"
        "0000034900000000000003486900000000000001f573096765745f6564676573"
        "74017403730476393535700109656467655f70726f704e740169000000000000"
        "00006900000000000002a94e6900000000009896806c0374027307656e717565"
        "7565740269000000000000000080560200000000000000000000000000000000"
        "000000034a0000000000000348740069000000000000024e6900000000000009"
        "384e74027307656e717565756574026900000000000000018056020000000000"
        "0000000000000001000000000000034a00000000000003497400690000000000"
        "00024e69000000000000093a4e7402730a616476616e63655f746f5602000000"
        "0000000000000000000000000000000003490000000000000348"
    ),
    "reply": (
        "034404010201026b69647065767301706900000000000000f244090802070610"
        "0406080671756572795f69647473726573756c74737374617465737665727469"
        "6365735f76697369746564686f707368616c746564726561645f736574726f75"
        "6e64736900000000000001f55602000000000000000000000000000000000000"
        "00034900000000000003486c016c03440306030a68616e646c656e627270726f"
        "706572746965737305653736303673037634316400440306030a68616e646c65"
        "6e627270726f706572746965737305653736303873037631316400440306030a"
        "68616e646c656e627270726f7065727469657373056539333133730576313136"
        "386400440104763935354e690000000000000001690000000000000000466c01"
        "7304763935356900000000000000016c0174046900000000000002a9730d7072"
        "6f6772616d2e726f756e64730673686172643044040805080571756572795f69"
        "64726f756e6466726f6e7469657273686172646900000000000001f569000000"
        "0000000000690000000000000001690000000000000000"
    ),
    "forward": (
        "03440201016b6d7301626c0174027307666f7277617264856900000000000001"
        "c669000000000000000174037403730476343531700305090964657074686564"
        "67655f70726f706d61785f64657074686900000000000000014e690000000000"
        "0000027402690000000000000000690000000000000000740373047634343770"
        "030509096465707468656467655f70726f706d61785f64657074686900000000"
        "000000014e690000000000000002740269000000000000000069000000000000"
        "00017403730376383170030509096465707468656467655f70726f706d61785f"
        "64657074686900000000000000014e6900000000000000027403690000000000"
        "000000690000000000000002690000000000000007"
    ),
}
