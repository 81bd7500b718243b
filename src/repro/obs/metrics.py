"""The metrics registry: fixed-bucket histograms plus absorbed stats.

Design constraints, in order:

* **Deterministic.**  Snapshots are value-only dictionaries with sorted
  keys; histograms use fixed bucket bounds and interpolate quantiles
  from bucket counts, so two identical runs produce identical snapshots
  (the golden-snapshot test in ``tests/test_stats_parity.py`` relies on
  this).
* **Free on the hot path.**  A counter is a public numeric field of a
  component's stats object, bumped with one attribute add; the registry
  reads it only at snapshot time (:meth:`MetricsRegistry.absorb`).  A
  histogram observation is one bisect plus three adds.  Nothing
  allocates per event.
* **One way to count.**  Histograms are the only instrument the
  registry owns.  Everything else reaches a snapshot through a
  *collector*: ``absorb`` for the fields of a stats object, and a named
  collector, written next to its component, for the few values that
  are not fields (sizes, per-kind dicts, per-region names).

Metric names are dotted paths (``oracle.messages``,
``latency.tx_commit.p99``).  Renaming one is an API change: the golden
test must be updated deliberately.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Union,
)

from .collect import summed_fields

Number = Union[int, float]

#: Default histogram buckets: geometric from 1 µs to ~16 s, factor 2.
#: Wide enough for simulated network latencies (100 µs hops) through
#: whole chaos-run horizons, fine enough for meaningful p50/p95/p99.
DEFAULT_BUCKETS = tuple(1e-6 * (2.0 ** k) for k in range(25))


class Histogram:
    """A fixed-bucket histogram with interpolated p50/p95/p99.

    Buckets are upper bounds; an observation lands in the first bucket
    whose bound is >= the value (one overflow bucket catches the rest).
    Quantiles interpolate linearly inside the winning bucket, which is
    deterministic and needs no per-sample storage — the property that
    lets the trace layer feed the Fig 10/11 latency CDFs without keeping
    every sample alive.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must strictly increase")
        self.name = name
        self.bounds: tuple = bounds
        # One extra slot: the overflow bucket past the last bound.
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]), interpolated within its bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = self.min
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            upper = (
                self.bounds[i] if i < len(self.bounds) else self.max
            )
            upper = min(upper, self.max)
            lower_edge = max(lower, self.min)
            if cumulative + n >= target:
                fraction = (target - cumulative) / n
                return lower_edge + fraction * (upper - lower_edge)
            cumulative += n
            lower = upper
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cdf(self, points: int = 50) -> List[tuple]:
        """(value, cumulative fraction) pairs — Fig 10/11 curve data."""
        if self.count == 0:
            return []
        out = []
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            cumulative += n
            upper = self.bounds[i] if i < len(self.bounds) else self.max
            out.append((min(upper, self.max), cumulative / self.count))
        return out[-points:] if len(out) > points else out

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max if self.count else 0.0,
        }

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")


#: A collector returns {dotted-name: number} read at snapshot time.
Collector = Callable[[], Dict[str, Number]]


class MetricsRegistry:
    """One deployment's metric namespace: histograms (get-or-create by
    name) and the collectors that absorb every counter."""

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Collector] = []

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name, buckets)
        return found

    def register_collector(self, collector: Collector) -> None:
        """Merge ``collector()``, a ``{dotted-name: number}`` dict, into
        every snapshot."""
        self._collectors.append(collector)

    def absorb(self, prefix: str, source: Callable[[], Any]) -> None:
        """Export the public numeric fields of ``source()`` as
        ``<prefix>.<field>``.

        ``source()`` returns one stats object, or an iterable of them
        summed by field.  It is called at every snapshot, so a
        collector follows a component replaced on recovery.
        """

        def collect() -> Dict[str, Number]:
            found = source()
            objects = found if isinstance(found, Iterable) else (found,)
            return {
                f"{prefix}.{key}": value
                for key, value in summed_fields(objects).items()
            }

        self._collectors.append(collect)

    def snapshot(self) -> Dict[str, Number]:
        """Every metric, flat, under sorted dotted names.

        Histograms expand to ``.count``/``.sum``/``.p50``/``.p95``/
        ``.p99``/``.max``.
        """
        out: Dict[str, Number] = {}
        for name, histogram in self._histograms.items():
            for suffix, value in histogram.summary().items():
                out[f"{name}.{suffix}"] = value
        for collector in self._collectors:
            out.update(collector())
        return dict(sorted(out.items()))
