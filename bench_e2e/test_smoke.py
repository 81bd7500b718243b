"""Smoke test of the benchmark itself (about a minute).

    python -m pytest bench_e2e -q

Not part of the tier-1 suite (``testpaths`` is ``tests``).  It drives the
contract command in ``--quick`` mode once per workload and pass, checks the
result line against ``BENCHMARK.json``, and pins the op generators.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# sha256 prefix of the first 1,000 ops generated for seed 1.  A change here
# means the benchmark's inputs moved: every recorded number is then stale.
PINNED_OPS = {
    "tao_read": "07c5dbdd4d8d622d",
    "tao_write_durable": "ad4b61502fb7770b",
    "traverse": "01eb7e59b1ba5623",
    "reactive_direct": "0a58e2651446fd97",
}


def _run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench_e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench_e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert (REPO / "BENCHMARK.json").stat().st_size <= 64 * 1024


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported(name, trace):
    done = _run("--workload", name, "--seed", "1", "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        got = result["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert isinstance(got["value"], (int, float))
        if trace == 0:
            assert got["value"] > 0, entry["name"]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_generated_ops_are_pinned(name):
    ops = wl.generate(name, 1, 1000).ops[:1000]
    assert wl.ops_digest(ops) == PINNED_OPS[name]
    longer = wl.generate(name, 1, 3000).ops
    assert longer[:len(ops)] == ops, "a shorter list must be a prefix of a longer one"
    assert wl.generate(name, 2, 1000).ops[:1000] != ops


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "bench_e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = _run("--workload", "tao_read", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
