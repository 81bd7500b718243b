"""Unified observability: the metrics registry and the trace layer.

Every counter the paper's evaluation reports (Fig 14's oracle vs.
announce messages, Figs 10-11's latency CDFs, Figs 12-13's shard
counters) flows through one process-wide surface:

* :class:`MetricsRegistry` — fixed-bucket histograms under stable
  dotted names, plus the counters every component keeps as public
  fields of its stats object (``OracleStats``, ``ShardStats``,
  ``GatekeeperStats``, ...), absorbed under a prefix so one snapshot
  reports everything;
* :class:`Tracer` — structured span records for one transaction or node
  program, identified by a client-assigned trace id, buffered in a ring
  with pluggable sinks (the strict-serializability referee in
  ``repro.verify.history`` is one such sink).
"""

from .metrics import Histogram, MetricsRegistry
from .trace import Span, Tracer, assemble_chain
from .collect import scalar_fields

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "assemble_chain",
    "scalar_fields",
]
