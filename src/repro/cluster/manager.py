"""The cluster manager: membership, failure detection, recovery.

Tracks gatekeepers and shards via registration and heartbeats
(section 3.2).  On failure detection it follows section 4.3:

* spawn a replacement server,
* restore the shard's graph partition from the backing store (the only
  durably stored state),
* bump the configuration **epoch** and impose a barrier so every server
  enters the new epoch in unison — replacement gatekeepers restart their
  vector clocks at zero, and epoch comparison keeps new timestamps
  ordered after all pre-failure ones,
* leave in-flight transactions and node programs to client re-execution
  (their partial state was never durable, so restarting them is safe).

The manager itself (like the timeline oracle) would be a Paxos-replicated
state machine in production; in this reproduction it is a single
deterministic object, which preserves its decisions-visible-to-all
semantics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..core.gatekeeper import Gatekeeper
from ..core.vclock import VectorTimestamp
from ..db.operations import (
    graph_state_from_store,
    load_partition,
    partition_image,
)
from ..errors import ClusterError
from ..store.kvstore import TransactionalStore
from ..store.mapping import ShardMapping
from .shard import ShardServer


class ClusterManager:
    """Failure detector and reconfiguration coordinator."""

    def __init__(
        self,
        store: TransactionalStore,
        mapping: ShardMapping,
        heartbeat_timeout: float = 1.0,
    ):
        self._store = store
        self._mapping = mapping
        self._timeout = heartbeat_timeout
        self._epoch = 0
        self._last_heartbeat: Dict[str, float] = {}
        self._gatekeepers: List[Gatekeeper] = []
        self._shards: List[ShardServer] = []
        self.failovers = 0
        # Records patched into surviving shards at recovery barriers:
        # committed state whose forwarding message was still in flight
        # (or partitioned away) when the epoch advanced.
        self.reconciled_records = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def gatekeepers(self) -> List[Gatekeeper]:
        return self._gatekeepers

    @property
    def shards(self) -> List[ShardServer]:
        return self._shards

    # -- membership ---------------------------------------------------

    def register_gatekeeper(self, gk: Gatekeeper) -> None:
        self._gatekeepers.append(gk)
        self._last_heartbeat[gk.name] = 0.0

    def register_shard(self, shard: ShardServer) -> None:
        self._shards.append(shard)
        self._last_heartbeat[shard.name] = 0.0

    def heartbeat(self, server_name: str, now: float) -> None:
        if server_name not in self._last_heartbeat:
            raise ClusterError(f"unregistered server {server_name!r}")
        self._last_heartbeat[server_name] = now

    def detect_failures(self, now: float) -> List[str]:
        """Servers whose last heartbeat is older than the timeout."""
        return [
            name
            for name, last in self._last_heartbeat.items()
            if now - last > self._timeout
        ]

    # -- reconfiguration (section 4.3) -----------------------------------

    def advance_epoch(self) -> int:
        """Bump the epoch and barrier all servers into it together."""
        self._epoch += 1
        for gk in self._gatekeepers:
            gk.advance_epoch(self._epoch)
        for shard in self._shards:
            shard.advance_epoch(self._epoch)
        return self._epoch

    def recover_gatekeeper(
        self,
        index: int,
        recovery_ts_factory: Optional[Callable[[], VectorTimestamp]] = None,
    ) -> Gatekeeper:
        """Replace a failed gatekeeper with a fresh one.

        The replacement's vector clock restarts at zero; the epoch bump
        keeps its timestamps ordered after every pre-failure timestamp.
        The dead gatekeeper's committed-but-undelivered forwards are
        reconciled into every shard from the backing store.
        """
        if not 0 <= index < len(self._gatekeepers):
            raise ClusterError(f"no gatekeeper {index}")
        replacement = Gatekeeper(
            index, len(self._gatekeepers), self._store, epoch=self._epoch
        )
        old = self._gatekeepers[index]
        self._gatekeepers[index] = replacement
        self._last_heartbeat[replacement.name] = max(
            self._last_heartbeat.values(), default=0.0
        )
        self.failovers += 1
        self.advance_epoch()
        if self._shards:
            if recovery_ts_factory is None:
                recovery_ts = self._gatekeepers[0].issue_timestamp()
            else:
                recovery_ts = recovery_ts_factory()
            for i, shard in enumerate(self._shards):
                self._reconcile_shard(shard, i, recovery_ts)
        del old
        return replacement

    def recover_shard(
        self,
        index: int,
        recovery_ts_factory: Optional[Callable[[], VectorTimestamp]] = None,
    ) -> ShardServer:
        """Replace a failed shard, reloading its partition from the store.

        The multi-version history on the failed shard was volatile; the
        replacement loads the latest committed state, stamped with one
        recovery timestamp in the (new) current epoch, so every later
        query sees it.
        """
        if not 0 <= index < len(self._shards):
            raise ClusterError(f"no shard {index}")
        failed = self._shards[index]
        replacement = ShardServer(
            index, failed.num_gatekeepers, failed.ordering.oracle
        )
        self._shards[index] = replacement
        self.failovers += 1
        self.advance_epoch()
        if recovery_ts_factory is None:
            recovery_ts = self._gatekeepers[0].issue_timestamp()
        else:
            recovery_ts = recovery_ts_factory()
        load_partition(
            replacement.graph,
            partition_image(
                self._store.snapshot(), dict(self._mapping.items()), index
            ),
            recovery_ts,
        )
        # The barrier also lets every surviving shard drop old-epoch
        # stragglers (a partitioned channel can deliver them arbitrarily
        # late, after later-ordered work was already applied at the
        # flush); whatever committed state those messages carried is
        # re-derived from the store here.
        for i, shard in enumerate(self._shards):
            if i != index:
                self._reconcile_shard(shard, i, recovery_ts)
        self._last_heartbeat[replacement.name] = max(
            self._last_heartbeat.values(), default=0.0
        )
        return replacement

    def _reconcile_shard(
        self, shard: ShardServer, index: int, ts: VectorTimestamp
    ) -> int:
        """Bring a surviving shard's partition up to date with the store.

        The epoch barrier assumes no further old-epoch stamp reaches a
        shard, so in-flight forwards are dropped at delivery.  Every
        transaction they carried was durably committed before it was
        forwarded, so its effects are recovered here from the backing
        store — the same source a replacement shard reloads from — as a
        diff against what the shard already applied, stamped at the
        recovery timestamp.  Returns the number of records patched.
        """
        placement = {v: s for v, s in self._mapping.items()}
        vertices, edges = graph_state_from_store(self._store.snapshot())
        edges_by_src: Dict[str, Dict[str, Any]] = {}
        for (src, handle), record in edges.items():
            edges_by_src.setdefault(src, {})[handle] = record
        view = shard.graph.at(ts)
        missing = object()
        patched = 0
        # Committed state the shard never saw (or saw an older value of).
        for handle, props in vertices.items():
            if placement.get(handle) != index:
                continue
            current = view.try_vertex(handle)
            if current is None:
                shard.graph.create_vertex(handle, ts)
                for key, value in props.items():
                    shard.graph.set_vertex_property(handle, key, value, ts)
                for ehandle, record in edges_by_src.get(handle, {}).items():
                    shard.graph.create_edge(ehandle, handle, record["dst"], ts)
                    for key, value in record.get("props", {}).items():
                        shard.graph.set_edge_property(
                            handle, ehandle, key, value, ts
                        )
                patched += 1
                continue
            for key, value in props.items():
                if current.get_property(key, missing) != value:
                    shard.graph.set_vertex_property(handle, key, value, ts)
                    patched += 1
            for key in current.properties():
                if key not in props:
                    shard.graph.delete_vertex_property(handle, key, ts)
                    patched += 1
            for ehandle, record in edges_by_src.get(handle, {}).items():
                edge = current.get_edge(ehandle)
                if edge is None:
                    shard.graph.create_edge(ehandle, handle, record["dst"], ts)
                    for key, value in record.get("props", {}).items():
                        shard.graph.set_edge_property(
                            handle, ehandle, key, value, ts
                        )
                    patched += 1
                    continue
                for key, value in record.get("props", {}).items():
                    if edge.get_property(key, missing) != value:
                        shard.graph.set_edge_property(
                            handle, ehandle, key, value, ts
                        )
                        patched += 1
                for key in edge.properties():
                    if key not in record.get("props", {}):
                        shard.graph.delete_edge_property(
                            handle, ehandle, key, ts
                        )
                        patched += 1
        # Committed deletions the shard never saw.
        for vertex_view in list(view.vertices()):
            handle = vertex_view.handle
            if placement.get(handle) != index:
                continue
            if handle not in vertices:
                shard.graph.delete_vertex(handle, ts)
                patched += 1
                continue
            live_edges = edges_by_src.get(handle, {})
            for edge_view in vertex_view.neighbors:
                if edge_view.handle not in live_edges:
                    shard.graph.delete_edge(handle, edge_view.handle, ts)
                    patched += 1
        self.reconciled_records += patched
        return patched
