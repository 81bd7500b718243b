"""Deployment-neutral construction of one Weaver cluster's parts.

Three deployments share one server wiring: the direct-mode
:class:`~repro.db.database.Weaver`, the discrete-event
:class:`~repro.sim.deployment.SimulatedWeaver`, and the multiprocess
:class:`~repro.cluster.process.ProcessWeaver`.  :func:`build_cluster`
assembles store / mapping / oracle / gatekeepers / shards / manager /
executor / metrics / tracer once, and every deployment hands the parts
to :class:`~repro.db.database.WritePath` with its transport — so the
simulated deployment is the *deterministic twin* of the process
deployment: same parts, same write path, different transport and clock.

The parts object keeps **live lists**: deployments replace gatekeepers
and shards in place on recovery, and the registered stats collectors
follow the replacements because they close over the lists, not over the
initial elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..core.gatekeeper import Gatekeeper
from ..core.ordering import make_oracle
from ..db.config import WeaverConfig
from ..obs import MetricsRegistry, Tracer, register_stats_collectors
from ..programs.framework import ProgramExecutor
from ..store.kvstore import TransactionalStore
from ..store.mapping import ShardMapping
from .manager import ClusterManager
from .shard import ShardServer


@dataclass
class ClusterParts:
    """Everything one deployment owns, however it moves messages."""

    config: WeaverConfig
    store: Any
    mapping: ShardMapping
    oracle: Any
    gatekeepers: List[Gatekeeper]
    shards: List[ShardServer]
    manager: ClusterManager
    executor: ProgramExecutor
    metrics: MetricsRegistry
    tracer: Tracer
    extras: dict = field(default_factory=dict)
    # Geo deployments (config.num_regions > 1): one RegionStats and one
    # RegionOracleClient per region, plus each server's region index
    # keyed by server name ("gk0", "shard1", ...).  Empty lists / dict
    # for the classic single-region shape.
    region_stats: List[Any] = field(default_factory=list)
    region_clients: List[Any] = field(default_factory=list)
    region_of: dict = field(default_factory=dict)


def build_cluster(
    config: Optional[WeaverConfig] = None,
    *,
    oracle: Any = None,
    with_shards: bool = True,
    heartbeat_timeout: float = 1.0,
    tracer_clock: Optional[Callable[[], float]] = None,
    network: Any = None,
    transport_stats: Any = None,
    extra: Optional[Callable[[], dict]] = None,
    use_store_nodes: bool = True,
) -> ClusterParts:
    """Assemble one cluster's parts.

    ``oracle`` overrides the locally constructed timeline oracle — the
    process deployment passes its :class:`~repro.cluster.worker.
    OracleProxy` so ordering state lives in the oracle process while
    the stats collector still reads it.  ``with_shards=False`` skips
    local shard servers (they live in worker processes) and their
    collectors.  ``network`` / ``transport_stats`` / ``extra`` add the
    deployment-specific collectors under their existing dotted names.
    """
    cfg = config or WeaverConfig()
    if cfg.store_backend == "sqlite":
        from ..store.durable import DurableStore

        store: Any = DurableStore(
            cfg.store_path, cache_bytes=cfg.store_cache_bytes
        )
    elif use_store_nodes and cfg.store_nodes:
        from ..store.distributed import DistributedStore

        store = DistributedStore(cfg.store_nodes, cfg.store_replication)
    else:
        store = TransactionalStore()
    mapping = ShardMapping(store, cfg.num_shards)
    if oracle is None:
        oracle = make_oracle(cfg.oracle_chain_length)
    # Geo shape: servers spread round-robin across regions, and each
    # region's shards talk to the oracle through a region-local client
    # (pure queries served by a pinned replica, escalations to the head).
    region_stats: List[Any] = []
    region_clients: List[Any] = []
    region_of: dict = {}
    if cfg.num_regions > 1:
        from ..core.oracle import RegionOracleClient, RegionStats

        region_stats = [RegionStats() for _ in range(cfg.num_regions)]
        region_clients = [
            RegionOracleClient(oracle, r, region_stats[r])
            for r in range(cfg.num_regions)
        ]
        for i in range(cfg.num_gatekeepers):
            region_of[f"gk{i}"] = i % cfg.num_regions
        for i in range(cfg.num_shards):
            region_of[f"shard{i}"] = i % cfg.num_regions

    def shard_oracle(index: int) -> Any:
        if region_clients:
            return region_clients[index % cfg.num_regions]
        return oracle

    gatekeepers = [
        Gatekeeper(i, cfg.num_gatekeepers, store)
        for i in range(cfg.num_gatekeepers)
    ]
    shards: List[ShardServer] = (
        [
            ShardServer(i, cfg.num_gatekeepers, shard_oracle(i))
            for i in range(cfg.num_shards)
        ]
        if with_shards
        else []
    )
    manager = ClusterManager(
        store, mapping, heartbeat_timeout=heartbeat_timeout
    )
    for gk in gatekeepers:
        manager.register_gatekeeper(gk)
    for shard in shards:
        manager.register_shard(shard)
    executor = ProgramExecutor()
    metrics = MetricsRegistry()
    tracer = Tracer(clock=tracer_clock, registry=metrics)
    oracle.tracer = tracer
    for gk in gatekeepers:
        gk.tracer = tracer
    for shard in shards:
        shard.tracer = tracer
    parts = ClusterParts(
        config=cfg,
        store=store,
        mapping=mapping,
        oracle=oracle,
        gatekeepers=gatekeepers,
        shards=shards,
        manager=manager,
        executor=executor,
        metrics=metrics,
        tracer=tracer,
        region_stats=region_stats,
        region_clients=region_clients,
        region_of=region_of,
    )
    register_stats_collectors(
        metrics,
        oracle=oracle,
        gatekeepers=lambda: parts.gatekeepers,
        shards=(lambda: parts.shards) if with_shards else None,
        network=network,
        programs=lambda: parts.executor.stats,
        transport=transport_stats,
        store=lambda: parts.store.stats,
        regions=(lambda: parts.region_stats) if region_stats else None,
        extra=extra,
    )
    return parts
