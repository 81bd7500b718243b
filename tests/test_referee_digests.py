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
                 "6294b677f2fbc83e", id="chaos-1"),
    pytest.param(lambda: run_chaos(2, duration=20 * MSEC),
                 "ccc94af17dbb0103", id="chaos-2"),
    pytest.param(lambda: run_chaos(3, duration=20 * MSEC),
                 "02fd13739579c1be", id="chaos-3"),
    pytest.param(lambda: run_chaos(7, duration=20 * MSEC),
                 "c10cca7c79625404", id="chaos-7"),
    pytest.param(lambda: run_soak(1, chunks=3),
                 "288351d98c9b84da", id="soak-1x3"),
    pytest.param(lambda: run_geo(1), "1607d99ec6e9fc2b", id="geo-1"),
    pytest.param(lambda: run_geo(2), "1bb266fabae80800", id="geo-2"),
])
def test_referee_digest(run, digest):
    report = run()
    assert report.digest[:16] == digest
    assert report.violations == []
