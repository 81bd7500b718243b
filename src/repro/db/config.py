"""Configuration for a Weaver deployment."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass
class WeaverConfig:
    """Knobs of one Weaver instance.

    Attributes:
        num_gatekeepers: size of the gatekeeper bank (Fig 12's axis).
        num_shards: number of graph partitions (Fig 13's axis).
        announce_every: commits between synchronous vector-clock announce
            rounds — the direct-mode analogue of the paper's τ.  1 keeps
            clocks tight (almost everything orders proactively); larger
            values push more pairs to the timeline oracle, which is the
            tradeoff Fig 14 sweeps.
        oracle_chain_length: replicas in the timeline oracle chain
            (1 = unreplicated; 3 = the paper's fault-tolerant setup).
        enable_program_cache: memoize node-program results at vertices
            (section 4.6; disabled by default, as in the paper's
            evaluation; ablation A1).
        partitioner: vertex placement — "round_robin" (balanced,
            locality-blind; the paper's evaluation setting), "hash", or
            "ldg" (streaming greedy colocation, section 4.6).
        drain_every: commits between background queue drains; bounds
            shard queue memory in long write-only stretches.
        store_nodes: 0 runs the backing store as a single transactional
            object; N >= 1 partitions it across N store nodes with
            Warp-style linear transactions and replication.
        store_replication: replicas per key when the store is
            distributed (>= 2 survives any single store-node failure).
        store_backend: "memory" keeps version chains in the Python heap
            (the historical default); "sqlite" persists them in a
            SQLite/WAL database so committed state survives kill -9 and
            the graph can exceed RAM.  Incompatible with ``store_nodes``
            (the distributed store is an in-memory deployment shape).
        store_path: database file for the sqlite backend (":memory:"
            for an ephemeral database; required to be a real path for
            multiprocess recovery, where workers reopen the file).
        store_cache_bytes: page-cache budget of the sqlite backend.
        program_execution: selects nothing.  Node programs run at the
            shards on every deployment whose shards are not in the
            client's process; ``"resident"``, the one value accepted,
            is what ``bench_e2e/workloads.py`` still passes.  The field
            goes when ROADMAP 6(b) drops that last reader.
        num_regions: geo-distributed regions.  1 (the default) is the
            classic single-cluster deployment; >1 spreads the gatekeeper
            bank round-robin across regions and (in the simulator)
            enables region-aware announce phases, per-region tau
            controllers, and Tiga-style deadline stamping.  Cannot
            exceed num_gatekeepers (every region needs a gatekeeper).
    """

    num_gatekeepers: int = 2
    num_shards: int = 2
    announce_every: int = 1
    oracle_chain_length: int = 1
    enable_program_cache: bool = False
    partitioner: str = "round_robin"
    drain_every: int = 256
    store_nodes: int = 0
    store_replication: int = 2
    store_backend: str = "memory"
    store_path: str = ":memory:"
    store_cache_bytes: int = 8 * 1024 * 1024
    program_execution: str = "resident"
    num_regions: int = 1

    def __post_init__(self) -> None:
        if self.num_gatekeepers < 1:
            raise ConfigError("need at least one gatekeeper")
        if self.num_shards < 1:
            raise ConfigError("need at least one shard")
        if self.announce_every < 1:
            raise ConfigError("announce_every must be >= 1")
        if self.oracle_chain_length < 1:
            raise ConfigError("oracle chain needs a replica")
        if self.partitioner not in ("round_robin", "hash", "ldg"):
            raise ConfigError(f"unknown partitioner {self.partitioner!r}")
        if self.drain_every < 1:
            raise ConfigError("drain_every must be >= 1")
        if self.store_nodes < 0:
            raise ConfigError("store_nodes must be >= 0")
        if self.store_nodes and not (
            1 <= self.store_replication <= self.store_nodes
        ):
            raise ConfigError(
                "store_replication must be in [1, store_nodes]"
            )
        if self.store_backend not in ("memory", "sqlite"):
            raise ConfigError(
                f"unknown store backend {self.store_backend!r}"
            )
        if self.store_backend == "sqlite" and self.store_nodes:
            raise ConfigError(
                "store_backend='sqlite' is incompatible with store_nodes"
            )
        if self.store_cache_bytes < 0:
            raise ConfigError("store_cache_bytes must be >= 0")
        if self.program_execution != "resident":
            raise ConfigError(
                f"program_execution={self.program_execution!r}: the only "
                "value is 'resident' (node programs run at the shards)"
            )
        if self.num_regions < 1:
            raise ConfigError("num_regions must be >= 1")
        if self.num_regions > self.num_gatekeepers:
            raise ConfigError(
                "num_regions cannot exceed num_gatekeepers: every region "
                "needs at least one gatekeeper"
            )
