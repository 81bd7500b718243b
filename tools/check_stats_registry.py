#!/usr/bin/env python
"""Lint: every ``*Stats`` class must be absorbed by the metrics registry.

The observability layer (``src/repro/obs``) exposes one process-wide
snapshot; ad-hoc counter classes that never reach it are invisible to
``repro stats --json``, the bench harness, and the CI chaos smoke.  This
check fails when a class named ``*Stats`` appears under ``src/`` that is
neither absorbed by :meth:`repro.obs.metrics.MetricsRegistry.absorb`
nor explicitly exempted below.

To add a new stats holder:

1. Give its numeric fields plain public attributes (so
   :func:`repro.obs.collect.scalar_fields` can read them), and
2. call ``registry.absorb(prefix, source)`` where its owner's
   deployment builds the registry, then
3. add the class to ``ABSORBED`` here with that prefix.

Exit status: 0 clean, 1 violations found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Classes the registry already exports, and the dotted prefix each one's
# fields appear under in a snapshot (see src/repro/obs/collect.py).
ABSORBED = {
    "OracleStats": "oracle.*",
    "GatekeeperStats": "gatekeeper.*",
    "ShardStats": "shard.*",
    "OrderingStats": "ordering.*",
    "NetworkStats": "network.*",
    "ProgramStats": "program.*",
    "TransportStats": "transport.*",
    "StoreStats": "store.*",
    # Defined in verify/history.py (History keeps the intake counts, the
    # referee the rest) and exported by OnlineChecker.register_metrics,
    # not the collect-layer helper: the checker rides whichever
    # deployment it is attached to.
    "CheckerStats": "checker.*",
    # Geo deployments only: registered when num_regions > 1, so the
    # single-region golden metric surface stays unchanged.
    "RegionStats": "region.<r>.*",
    # Shard-resident program engine: worker-side counters summed by the
    # client's _process_metrics collector (program.resident.*, plus the
    # peer-channel TransportStats as transport.worker.*), and the
    # simulated shards' by SimulatedWeaver._sim_metrics.
    "ResidentStats": "program.resident.*",
}

# Deliberately outside the registry, with the reason on record.
EXEMPT = {
    # Baseline comparison harness: runs in its own process model and is
    # never part of a Weaver deployment's snapshot.
    "TitanStats": "baselines/titan.py is not a Weaver component",
}


def stats_classes(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Stats"):
            yield node.name, node.lineno


def main() -> int:
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        for name, lineno in stats_classes(path):
            if name in ABSORBED or name in EXEMPT:
                continue
            violations.append((path, lineno, name))
    for path, lineno, name in violations:
        rel = path.relative_to(SRC.parent)
        print(
            f"{rel}:{lineno}: {name} is not absorbed by the metrics "
            "registry — absorb it with MetricsRegistry.absorb(prefix, "
            "source) where its deployment builds the registry (e.g. "
            "src/repro/cluster/builder.py:build_cluster) and add "
            "it to ABSORBED in tools/check_stats_registry.py "
            "(or EXEMPT it with a reason)."
        )
    if violations:
        return 1
    print(
        f"stats-registry check: {len(ABSORBED)} absorbed, "
        f"{len(EXEMPT)} exempt, 0 stray"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
