"""Geo sweep: deadline fast path vs oracle-only baseline per announce
cadence (commits per announce round).

For each cadence the sweep runs two otherwise-identical geo deployments
(3 regions, asymmetric wide-area latency matrix, deadline-delayed
commit acks) differing only in whether the ordering layer may use the
Tiga-style deadline fast path.  The result is recorded as
``BENCH_geo.json`` at the repo root.

The acceptance claim: at equal cadence the fast path cuts oracle calls
(``oracle_reduction`` > 1 on every point) while the referee and the
History/OnlineChecker digest parity stay clean on both modes.
"""

import json
import pathlib

from repro.workloads.geo import geo_sweep

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CADENCES = [1, 4, 16]


def test_geo_sweep(show):
    result = geo_sweep(seed=7, cadences=CADENCES, num_regions=3)
    (REPO_ROOT / "BENCH_geo.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    show(
        "Geo sweep: 3 regions, oracle calls baseline vs deadline fast path",
        headers=["commits/announce", "oracle base", "oracle fast", "reduction",
                 "fastpath wins", "p99 base (ms)", "p99 fast (ms)"],
        rows=[
            [
                p["announce_every"],
                p["baseline"]["oracle_calls"],
                p["fastpath"]["oracle_calls"],
                f"{p['oracle_reduction']:.1f}x",
                p["fastpath"]["deadline_fastpath"],
                round(p["baseline"]["tx_p99"] * 1000, 3),
                round(p["fastpath"]["tx_p99"] * 1000, 3),
            ]
            for p in result["points"]
        ],
        lines=[f"all_consistent: {result['all_consistent']}"],
    )
    assert result["all_consistent"], "referee or digest parity failed"
    for point in result["points"]:
        fast, base = point["fastpath"], point["baseline"]
        # Same workload committed on both sides — the comparison is fair.
        assert fast["committed"] == base["committed"]
        assert fast["committed"] > 0 and fast["reads_completed"] > 0
        # The fast path actually fired, and the baseline never did.
        assert fast["deadline_fastpath"] > 0
        assert base["deadline_fastpath"] == 0
        # The acceptance bar: fewer oracle calls at equal cadence.
        assert base["oracle_calls"] > fast["oracle_calls"], (
            f"announce_every={point['announce_every']}: baseline {base['oracle_calls']} vs "
            f"fastpath {fast['oracle_calls']}"
        )
        assert point["oracle_reduction"] > 1.0
