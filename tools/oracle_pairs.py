#!/usr/bin/env python
"""The twin's ordering counters, and its oracle requests by the kinds
of the two stamps compared.

Every compare a shard sends to the oracle (``ordering.reactive``) is
one head request.  This script labels each stamp by what issued it — a
NOP heartbeat (``Gatekeeper.make_nop``), a transaction
(``Gatekeeper.commit_prepared``), the stamp of the heartbeat round that
ends the twin's GC tick (an ``issue_timestamp`` inside
``SimulatedWeaver._gc_tick``) or a node program (any other
``issue_timestamp``) — by wrapping those methods at run time, and counts
the requests per unordered pair of kinds.  Each row also prints the
fast-path counters of the measured twin's ``metrics.snapshot()``.
Nothing under ``src/`` is edited; every number is simulated.

    python tools/oracle_pairs.py               # Figs 9a, 9b, 12 and geo
    python tools/oracle_pairs.py --ops 1000    # a quicker, smaller run

``--ops`` sizes the figure runs; the geo rows are ``run_geo`` seed 7
(3 regions, an announce round every commit) at its own length.  The
first line of each row also counts the GC rounds' stamps.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import harness  # noqa: E402
from repro.core.gatekeeper import Gatekeeper  # noqa: E402
from repro.core.ordering import RefinableOrdering  # noqa: E402
from repro.sim.deployment import SimulatedWeaver  # noqa: E402
from repro.workloads.geo import run_geo  # noqa: E402

KINDS: dict = {}
PAIRS: collections.Counter = collections.Counter()
TWINS: list = []
# What an ``issue_timestamp`` stamps: the last entry, "round" while the
# twin's GC tick runs.
ISSUED = ["program"]


def _labelled(method, kind=None):
    def wrapper(*args, **kwargs):
        ts = method(*args, **kwargs)
        KINDS[ts.id] = kind or ISSUED[-1]
        return ts
    return wrapper


def _gc_round(tick):
    def wrapper(self):
        ISSUED.append("round")
        try:
            tick(self)
        finally:
            ISSUED.pop()
    return wrapper


def _counted(compare):
    def wrapper(self, a, b, *args, **kwargs):
        before = self.stats.reactive
        decided = compare(self, a, b, *args, **kwargs)
        if self.stats.reactive != before:
            pair = sorted((KINDS.get(a.id, "?"), KINDS.get(b.id, "?")))
            PAIRS["–".join(pair)] += 1
        return decided
    return wrapper


def install() -> None:
    Gatekeeper.issue_timestamp = _labelled(Gatekeeper.issue_timestamp)
    SimulatedWeaver._gc_tick = _gc_round(SimulatedWeaver._gc_tick)
    Gatekeeper.make_nop = _labelled(Gatekeeper.make_nop, "NOP")
    Gatekeeper.commit_prepared = _labelled(
        Gatekeeper.commit_prepared, "tx"
    )
    RefinableOrdering.compare = _counted(RefinableOrdering.compare)
    built = SimulatedWeaver.__init__

    def recorded(self, *args, **kwargs):
        built(self, *args, **kwargs)
        TWINS.append(self)
    SimulatedWeaver.__init__ = recorded


def rows(ops: int):
    yield "Fig 9a", lambda: harness.experiment_fig9(total_ops=ops)
    yield "Fig 9b", lambda: harness.experiment_fig9(
        read_fraction=0.75, total_ops=ops
    )
    for count in (1, 3, 6):
        yield f"Fig 12, G={count}", lambda count=count: (
            harness.experiment_fig12(gatekeeper_counts=(count,), ops=ops)
        )
    for fastpath in (True, False):
        name = "geo fast path" if fastpath else "geo baseline"
        yield name, lambda fastpath=fastpath: run_geo(7, fastpath=fastpath)


def counters(snap) -> str:
    """ROADMAP 19's columns: compares, oracle requests, and the skyline
    index's pruned candidates."""
    compares = sum(snap[f"ordering.{kind}"] for kind in (
        "proactive", "deadline_fastpath", "reactive"
    ))
    return (
        f"  compares {compares:,}"
        f" ({snap['ordering.deadline_fastpath']:,} deadline);"
        f" {snap['oracle.messages']:,} requests;"
        f" bfs_pruned {snap['oracle.bfs_pruned']:,}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=4_000)
    args = parser.parse_args(argv)
    install()
    try:
        for name, run in rows(args.ops):
            KINDS.clear()
            PAIRS.clear()
            TWINS.clear()
            run()
            total = sum(PAIRS.values())
            kinds = collections.Counter(KINDS.values())
            print(f"{name}: {total:,} oracle requests; {kinds['program']:,}"
                  f" fresh program stamps; {kinds['round']:,} GC rounds")
            print(counters(TWINS[-1].metrics.snapshot()))
            for pair, count in PAIRS.most_common():
                print(f"  {pair:<16} {count:>8,}"
                      f"  {100 * count / total:5.1f}%")
        sys.stdout.flush()
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `... | head -1`).
        try:
            os.close(sys.stdout.fileno())
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
