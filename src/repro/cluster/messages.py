"""Typed messages exchanged between Weaver servers.

Only the payloads that cross server boundaries live here; transport (the
simulated network or direct calls) is supplied by the database layer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..core.vclock import VectorTimestamp
from ..db.operations import Operation
from ..errors import ProgramError

#: One level of an order key: a big-endian ``u32``.
_LEVEL = struct.Struct(">I")
#: What a level cannot reach.  A name, so a test can lower it.
LEVEL_LIMIT = 2**32


def pack_level(index: int, what: str) -> bytes:
    """One order-key level: ``index`` as four big-endian bytes.

    An order key is the concatenation of its levels — the start
    entry's index, then one hop index per round — so the keys of one
    round share a length, and for byte strings of one length ``memcmp``
    order is the order of the integer tuples they spell: they sort,
    compare (``key <= halt_key``) and take ``min`` exactly as tuples
    would, and cross the wire as one blob.  An index a level cannot
    hold fails by name (``what`` says which count overflowed)."""
    if index >= LEVEL_LIMIT:
        raise ProgramError(f"more than 2**32 {what}")
    return _LEVEL.pack(index)


def pack_levels(prefix: bytes, count: int, what: str) -> List[bytes]:
    """``prefix + pack_level(i, what)`` for ``i`` in ``range(count)``,
    with the bound checked once for the whole run."""
    if count > LEVEL_LIMIT:
        raise ProgramError(f"more than 2**32 {what}")
    pack = _LEVEL.pack
    return [prefix + pack(i) for i in range(count)]


@dataclass(frozen=True)
class QueuedTransaction:
    """A transaction (or NOP) as it sits in a shard's gatekeeper queue.

    ``operations`` is empty for NOPs — the heartbeat transactions that
    keep every queue non-empty under light load (section 4.2).  ``seqno``
    is the FIFO sequence number on the (gatekeeper, shard) channel.

    ``tiebreak`` is an optional sender-assigned rank used as the oracle
    preference for concurrent pairs (section 3.4's "arrival order").  It
    is assigned in send order — which extends backing-store commit order,
    because gatekeepers forward synchronously at commit — so the
    preference stays commit-order-faithful even when network faults
    deliver channels at different speeds.  When absent, receivers fall
    back to local arrival order (equivalent on uniform channels).

    ``trace_id`` is the client-assigned observability id (``repro.obs``)
    carried along so shard-side spans attribute to the right trace; it
    is None for NOPs and for callers that do not trace.
    """

    ts: VectorTimestamp
    operations: Tuple[Operation, ...] = ()
    seqno: Optional[int] = None
    tiebreak: Optional[int] = None
    trace_id: Optional[int] = None

    @property
    def is_nop(self) -> bool:
        return not self.operations

    @property
    def queue_key(self) -> Tuple[int, int]:
        """Sort key within one gatekeeper's queue.

        A single gatekeeper's timestamps are totally ordered by (epoch,
        own counter), so per-queue priority needs no oracle.
        """
        return (self.ts.epoch, self.ts.local_clock)


@dataclass(frozen=True)
class AnnounceMessage:
    """A gatekeeper's periodic vector-clock broadcast (section 3.3)."""

    src: int
    vector: Tuple[int, ...]


@dataclass(frozen=True)
class ProgramStart:
    """Ship a node program to the start vertex's owning shard (section 4).

    The shard-resident execution path: the client submits one of these
    to the coordinator worker (the start vertex's owner) and receives
    only the aggregated result — program logic runs at the shards, and
    frontiers travel worker-to-worker as :class:`FrontierForward`
    frames instead of vertex images travelling to the client.

    ``frontier`` is the keyed initial frontier: ``(handle, params,
    order_key)`` rows, where ``order_key`` is the byte string
    (:func:`pack_level`) that totally orders entries exactly like the
    executor's append order (children extend their parent's key with
    the hop index).

    A program on the wire is ``(program, init)``: its registered name
    and the instance's own ``vars()``, from which every participating
    shard rebuilds it as ``PROGRAM_REGISTRY[program](**init)``.  ``init``
    is None for a program with no instance state.  ``trace_id`` is
    carried explicitly so shard-side spans attribute to the submitting
    client's trace across a process boundary, where no ambient context
    survives.
    """

    ts: VectorTimestamp
    query_id: int
    program: str
    frontier: Tuple[Tuple[str, Any, Any], ...]
    trace_id: Optional[int] = None
    max_visits: int = 10_000_000
    init: Optional[dict] = None


@dataclass(frozen=True)
class FrontierForward:
    """One worker's next-round hops for another worker (section 4.1).

    The peer-to-peer frontier frame of shard-resident execution: the
    ``(handle, params, order_key)`` rows owned by the destination shard
    for ``round``, in columns.  ``handles`` and ``keys`` hold one item
    per hop; ``params`` holds each *distinct* params object of the
    frame once (distinct by identity, which is how programs share one
    params object among a parent's hops) and ``param_of`` one packed
    ``u32`` per hop indexing into it.  :meth:`from_rows` and
    :meth:`rows` are the only two places that know this layout.  Per
    (src, dst, round) there is exactly one of these — per-round wire
    traffic is O(shards), not O(frontier).
    """

    query_id: int
    round: int
    handles: Tuple[str, ...]
    keys: Tuple[bytes, ...]
    params: Tuple[Any, ...]
    param_of: bytes

    @classmethod
    def from_rows(
        cls, query_id: int, round_no: int,
        rows: List[Tuple[str, Any, bytes]],
    ) -> "FrontierForward":
        handles, params, keys = zip(*rows) if rows else ((), (), ())
        # Insertion order numbers the distinct objects; the rows keep
        # every one of them alive, so an id names one object.
        distinct = {id(item): item for item in params}
        slot = {ident: i for i, ident in enumerate(distinct)}
        return cls(
            query_id, round_no, handles, keys, tuple(distinct.values()),
            struct.pack(
                f">{len(params)}I", *map(slot.__getitem__, map(id, params))
            ),
        )

    def rows(self) -> List[Tuple[str, Any, bytes]]:
        """The hops as ``(handle, params, order_key)`` rows.  Columns
        that do not describe one set of hops are refused by name: ``zip``
        would quietly drop the tail."""
        hops = len(self.handles)
        if len(self.keys) != hops or len(self.param_of) != 4 * hops:
            raise ProgramError(
                f"malformed frontier forward: {hops} handles, "
                f"{len(self.keys)} keys, {len(self.param_of)} index bytes"
            )
        slots = struct.unpack(f">{hops}I", self.param_of)
        params = self.params
        if hops and max(slots) >= len(params):
            raise ProgramError(
                f"malformed frontier forward: params index {max(slots)} "
                f"of {len(params)}"
            )
        return list(zip(
            self.handles, map(params.__getitem__, slots), self.keys
        ))


@dataclass(frozen=True)
class Heartbeat:
    """Server liveness report to the cluster manager (section 3.2)."""

    server: str
    epoch: int
    sent_at: float
