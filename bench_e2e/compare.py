#!/usr/bin/env python3
"""Compare two sets of ``run.py --out`` files, metric by workload.

    python3 bench_e2e/compare.py base.json new.json
    python3 bench_e2e/compare.py --base a1.json a2.json --new b1.json b2.json

Values of all files on a side are pooled (a file written with ``--repeat``
holds several per cell) and the medians compared against the bound that
``BENCHMARK.json`` fixes for the metric:

* ``worse``      the new median is worse than the base by more than the bound;
* ``unresolved`` it is not, but the run-to-run spread of either side
                 (interquartile range over median, given at least four
                 values) is wider than the bound, so "not worse" means little;
* ``better``     the new median is better by more than the bound;
* ``same``       none of the above.

Exits non-zero if any cell is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent

Cells = Dict[str, Dict[str, List[float]]]


def _pool(paths: List[str]) -> Cells:
    pooled: Cells = {}
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        for workload, metrics in data["end_to_end"].items():
            for metric, values in metrics.items():
                pooled.setdefault(workload, {}).setdefault(metric, []).extend(values)
    return pooled


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median; None below four values,
    where quartiles say nothing."""
    if len(values) < 4:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    base_median, new_median = statistics.median(base), statistics.median(new)
    if not base_median:
        return "unresolved"
    change = (new_median - base_median) / base_median
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    return "better" if worse_by < -bound else "same"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="*", help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    if len(args.files) == 2 and not (args.base or args.new):
        args.base, args.new = args.files[:1], args.files[1:]
    elif args.files or not (args.base and args.new):
        parser.error("give BASE.json NEW.json, or --base FILES --new FILES")

    with open(REPO / "BENCHMARK.json") as handle:
        metrics = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    base, new = _pool(args.base), _pool(args.new)
    counts = {"same": 0, "better": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<19}{'metric':<20}{'base':>12}{'new':>12}{'new/base':>10}  verdict")
    for workload in base:
        for name, spec in metrics.items():
            b = base[workload].get(name)
            n = new.get(workload, {}).get(name)
            if not b or not n:
                print(f"{workload:<19}{name:<20}{'missing on one side':>34}  unresolved")
                counts["unresolved"] += 1
                continue
            result = verdict(b, n, spec["better"], spec["bound"])
            counts[result] += 1
            b_med, n_med = statistics.median(b), statistics.median(n)
            print(
                f"{workload:<19}{name:<20}{b_med:>12.4f}{n_med:>12.4f}"
                f"{n_med / b_med if b_med else float('nan'):>10.3f}  {result}"
                f" (bound {spec['bound']:.2f}, n={len(b)}/{len(n)})"
            )
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
