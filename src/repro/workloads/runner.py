"""Closed-loop workload driver for the functional database.

Runs an operation stream against a live :class:`~repro.db.client.
WeaverClient`, recording per-op success and the protocol statistics the
figures report (reactive-ordering fraction, abort counts).  Timing for
the throughput/latency figures, and Fig 9's reactively-ordered
fraction, are measured on the simulated twin (:mod:`repro.bench.harness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import TransactionAborted, WeaverError
from .tao import TaoWorkload, apply_to_weaver


@dataclass
class RunReport:
    """Outcome of one functional workload run."""

    operations: int = 0
    failures: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    ordering: Dict[str, int] = field(default_factory=dict)

    @property
    def reactive_fraction(self) -> float:
        total = sum(self.ordering.values())
        return self.ordering.get("reactive", 0) / total if total else 0.0


def run_tao(client, workload: TaoWorkload, num_ops: int) -> RunReport:
    """Replay ``num_ops`` TAO operations through the client.

    Failures (e.g. a create_edge racing a vertex deletion) are counted,
    not raised — a real workload driver retries and moves on.
    """
    report = RunReport()
    metrics = client.db.metrics
    before = metrics.snapshot()
    for op in workload.stream(num_ops):
        report.operations += 1
        report.counts[op[0]] = report.counts.get(op[0], 0) + 1
        try:
            apply_to_weaver(client, op, workload)
        except (TransactionAborted, WeaverError):
            report.failures += 1
    after = metrics.snapshot()
    report.ordering = {
        kind: after[f"ordering.{kind}"] - before[f"ordering.{kind}"]
        for kind in ("proactive", "reactive")
    }
    return report
