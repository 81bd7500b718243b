"""Every digest ROADMAP calls the referee, pinned by value in one table.

A digest covers everything a run's history recorded (commits, reads,
shard applies), so one that moves means some message was sent, ordered
or applied differently.  A change that moves one has to say which
reordering did it (EXPERIMENTS.md, "Which digests moved and why") and
re-pin it here; the verdict must stay clean either way.
"""

import pytest

from repro.sim.clock import MSEC
from repro.workloads.chaos import run_chaos, run_soak
from repro.workloads.geo import run_geo


@pytest.mark.parametrize("run,digest", [
    pytest.param(lambda: run_chaos(1, duration=20 * MSEC),
                 "7240c1e127891a83", id="chaos-1"),
    pytest.param(lambda: run_chaos(2, duration=20 * MSEC),
                 "bfa415e2a4d938e5", id="chaos-2"),
    pytest.param(lambda: run_chaos(3, duration=20 * MSEC),
                 "99db29f9a6dbee43", id="chaos-3"),
    pytest.param(lambda: run_chaos(7, duration=20 * MSEC),
                 "b6a6331c92b60d8d", id="chaos-7"),
    pytest.param(lambda: run_soak(1, chunks=3),
                 "493b5c7dba69200f", id="soak-1x3"),
    pytest.param(lambda: run_geo(1), "035493d3feef51f9", id="geo-1"),
    pytest.param(lambda: run_geo(2), "33b4d94ae263e8fe", id="geo-2"),
])
def test_referee_digest(run, digest):
    report = run()
    assert report.digest[:16] == digest
    assert report.violations == []
