"""Reading counters out of stats objects.

A component counts into plain public attributes of its stats object
(``OracleStats``, ``ShardStats``, ...); the registry reads them at
snapshot time with :func:`scalar_fields`, summing servers of one kind
with :func:`summed_fields` (see ``MetricsRegistry.absorb``).  Duck
typing only: no imports from the server modules, so ``repro.obs``
stays dependency-free.

A ``*Stats`` class that no deployment absorbs is flagged by
``tools/check_stats_registry.py`` (run in CI): every counter must be
reachable from one ``repro stats --json`` snapshot.
"""

from __future__ import annotations

from typing import Dict, Iterable, Union

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


def summed_fields(objects: Iterable[object]) -> Dict[str, Number]:
    """:func:`scalar_fields` of several objects, summed by field."""
    totals: Dict[str, Number] = {}
    for obj in objects:
        for key, value in scalar_fields(obj).items():
            totals[key] = totals.get(key, 0) + value
    return totals
