"""Collectors that absorb the legacy ``*Stats`` classes into the registry.

The per-server stats objects (``OracleStats``, ``ShardStats``,
``GatekeeperStats``, ``OrderingStats``, ``NetworkStats``) keep their
plain-attribute counters — dozens of hot-path call sites and tests
touch them directly — and this module reads them out under stable
dotted names at snapshot time.  Duck typing only: no imports from the
server modules, so ``repro.obs`` stays dependency-free.

Adding a *new* ``*Stats`` class outside this absorption path is flagged
by ``tools/check_stats_registry.py`` (run in CI): every counter must be
reachable from one ``repro stats --json`` snapshot.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Union

Number = Union[int, float]


def scalar_fields(stats: object) -> Dict[str, Number]:
    """The numeric instance attributes of one stats object, sorted.

    ``vars()`` deliberately: a counter added to a stats class surfaces
    in every snapshot automatically, so the golden-name test notices
    additions as well as renames.
    """
    return {
        key: value
        for key, value in sorted(vars(stats).items())
        if not key.startswith("_") and isinstance(value, (int, float))
    }


def _summed(objects: Iterable[object]) -> Dict[str, Number]:
    totals: Dict[str, Number] = {}
    for obj in objects:
        for key, value in scalar_fields(obj).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def register_stats_collectors(
    registry,
    oracle=None,
    gatekeepers: Optional[Callable[[], list]] = None,
    shards: Optional[Callable[[], list]] = None,
    network=None,
    programs: Optional[Callable[[], object]] = None,
    transport=None,
    store: Optional[Callable[[], object]] = None,
    regions: Optional[Callable[[], list]] = None,
    extra: Optional[Callable[[], Dict[str, Number]]] = None,
) -> None:
    """Wire one deployment's stats objects into ``registry``.

    ``gatekeepers`` and ``shards`` are zero-arg callables returning the
    *current* server lists — deployments replace servers on recovery,
    and collectors must follow the replacements, not the corpses.
    ``programs`` is a zero-arg callable returning the program executor's
    ``ProgramStats``, exported under ``program.*``.  ``transport`` is a
    wire-layer ``TransportStats``, exported under ``transport.*`` (the
    per-channel queue-depth gauges are registered by the transport
    itself, since channels come and go with workers).  ``store`` is a
    zero-arg callable returning the backing store's ``StoreStats``,
    exported under ``store.*`` — callable so collectors follow a store
    swapped during recovery.  ``regions`` is a zero-arg callable
    returning the per-region ``RegionStats`` list of a geo deployment,
    exported under ``region.<r>.*`` (including the per-region announce
    count read from the network's region counters); deployments with one
    region pass None so the single-region metric surface is unchanged.
    """

    if oracle is not None:

        def collect_oracle() -> Dict[str, Number]:
            head = getattr(oracle, "head", oracle)
            out = {
                f"oracle.{key}": value
                for key, value in scalar_fields(head.stats).items()
            }
            out["oracle.messages"] = head.stats.messages
            out["oracle.events"] = head.num_events
            out["oracle.reach_cache_size"] = head.reach_cache_size
            # Chain-replication fan-out; 0 for a single oracle.  Kept
            # separate from client-visible `oracle.messages` on purpose.
            out["oracle.update_messages"] = getattr(
                oracle, "update_messages", 0
            )
            return out

        registry.register_collector(collect_oracle)

    if gatekeepers is not None:

        def collect_gatekeepers() -> Dict[str, Number]:
            return {
                f"gatekeeper.{key}": value
                for key, value in _summed(
                    gk.stats for gk in gatekeepers()
                ).items()
            }

        registry.register_collector(collect_gatekeepers)

    if shards is not None:

        def collect_shards() -> Dict[str, Number]:
            current = shards()
            out = {
                f"shard.{key}": value
                for key, value in _summed(s.stats for s in current).items()
            }
            out.update(
                {
                    f"ordering.{key}": value
                    for key, value in _summed(
                        s.ordering.stats for s in current
                    ).items()
                }
            )
            caches = [
                s.ordering.cache
                for s in current
                if s.ordering.cache is not None
            ]
            out["ordering.cache_hits"] = sum(c.hits for c in caches)
            out["ordering.cache_misses"] = sum(c.misses for c in caches)
            out["ordering.cache_entries"] = sum(len(c) for c in caches)
            return out

        registry.register_collector(collect_shards)

    if network is not None:

        def collect_network() -> Dict[str, Number]:
            stats = network.stats
            out: Dict[str, Number] = {
                "network.messages_total": stats.total,
                "network.faults_total": stats.total_faults(),
            }
            for kind, count in sorted(stats.sent.items()):
                out[f"network.sent.{kind}"] = count
            for kind, count in sorted(stats.faults.items()):
                out[f"network.faults.{kind}"] = count
            return out

        registry.register_collector(collect_network)

    if programs is not None:

        def collect_programs() -> Dict[str, Number]:
            return {
                f"program.{key}": value
                for key, value in scalar_fields(programs()).items()
            }

        registry.register_collector(collect_programs)

    if transport is not None:

        def collect_transport() -> Dict[str, Number]:
            return {
                f"transport.{key}": value
                for key, value in scalar_fields(transport).items()
            }

        registry.register_collector(collect_transport)

    if store is not None:

        def collect_store() -> Dict[str, Number]:
            return {
                f"store.{key}": value
                for key, value in scalar_fields(store()).items()
            }

        registry.register_collector(collect_store)

    if regions is not None:

        def collect_regions() -> Dict[str, Number]:
            out: Dict[str, Number] = {}
            for r, rstats in enumerate(regions()):
                for key, value in scalar_fields(rstats).items():
                    out[f"region.{r}.{key}"] = value
                out[f"region.{r}.oracle_messages"] = rstats.oracle_messages
                announce = 0
                if network is not None:
                    announce = network.stats.region_count(r, "announce")
                out[f"region.{r}.announce_messages"] = announce
            return out

        registry.register_collector(collect_regions)

    if extra is not None:
        registry.register_collector(extra)
