"""Shard-routed batch resolution over shared snapshot views.

:class:`ShardSnapshotResolver` is the one resolver every deployment
hands to :func:`~repro.programs.framework.run_round`: it groups each
scatter-gather round's frontier by owning shard and hands every
shard's batch to that shard
(:meth:`~repro.cluster.shard.ShardServer.resolve_batch`), with the view
the shard keeps for the query's stamp
(:meth:`~repro.cluster.shard.ShardServer.snapshot`), asked for once per
(query, shard) — one message per batch, not one per vertex, the paper's
shard-to-shard batch propagation (section 4.1).  The shards are always
in the resolver's own process: the in-process deployment's, or the one
shard of a worker.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence

from ..core.vclock import VectorTimestamp
from ..graph.mvgraph import SnapshotView, VertexView
from .framework import ProgramStats


class ShardSnapshotResolver:
    """Resolve program vertices against the shards' shared snapshots.

    ``shard_of(handle)`` maps a vertex to its owning shard index (None
    for unknown vertices); ``shards`` is the live shard-server list (held
    by reference — deployments replace entries on recovery).  With
    ``shard_of`` None every vertex is the one shard's in ``shards`` (a
    shard worker's own): a round's handles resolve against its view with
    no placement lookup or grouping per handle.
    """

    def __init__(
        self,
        ts: VectorTimestamp,
        shard_of: Optional[Callable[[str], Optional[int]]],
        shards: Sequence,
        stats: Optional[ProgramStats] = None,
    ):
        self._ts = ts
        self._shard_of = shard_of
        self._shards = shards
        self._stats = stats if stats is not None else ProgramStats()
        self._views: Dict[int, SnapshotView] = {}
        # Per-query vertex-view cache: the snapshot is fixed, so a
        # handle's visibility never changes across rounds — cross-round
        # revisits are served locally, with no repeat shard request or
        # placement lookup.
        self._vertices: Dict[str, Optional[VertexView]] = {}

    @property
    def snapshots_created(self) -> int:
        """Snapshot views this query asked for — O(shards), not
        O(vertices)."""
        return len(self._views)

    def resolve_many(
        self, handles: Iterable[str]
    ) -> Dict[str, Optional[VertexView]]:
        """Resolve one round's frontier, grouped by owning shard.

        Duplicate handles resolve once; cross-round revisits come from
        the per-query vertex cache without a shard request; unknown
        vertices map to None.  Every handle is a key of the result.
        """
        out: Dict[str, Optional[VertexView]] = {}
        shard_of = self._shard_of
        # shard index -> {handle: None} batch, filled in by the view.
        here: Optional[dict] = {} if shard_of is None else None
        per_shard: Dict[int, dict] = {} if here is None else {0: here}
        cache = self._vertices
        stats = self._stats
        cache_hits = 0
        for handle in handles:
            if handle in out:
                continue
            if handle in cache:
                out[handle] = cache[handle]
                cache_hits += 1
                continue
            out[handle] = None
            if here is not None:
                here[handle] = None
                continue
            shard_index = shard_of(handle)
            if shard_index is None:
                cache[handle] = None
            else:
                per_shard.setdefault(shard_index, {})[handle] = None
        for shard_index in sorted(per_shard):
            batch = per_shard[shard_index]
            if not batch:
                continue
            shard = self._shards[shard_index]
            view = self._views.get(shard_index)
            # Set when this batch pays for the shard's snapshot view.
            fresh = view is None
            if fresh:
                view = self._views[shard_index] = shard.snapshot(self._ts)
            shard.resolve_batch(view, batch)
            out.update(batch)
            cache.update(batch)
            stats.shard_batches += 1
            stats.vertices_resolved += len(batch)
            # Every resolution after the view's first rides the memo.
            stats.snapshots_created += fresh
            stats.snapshot_reuse_hits += len(batch) - fresh
            # One message per (shard, round) replaces one per vertex.
            stats.round_messages_saved += len(batch) - 1
        if cache_hits:
            stats.vertices_resolved += cache_hits
            stats.snapshot_reuse_hits += cache_hits
            # A cached revisit needs no shard message at all.
            stats.round_messages_saved += cache_hits
        return out
