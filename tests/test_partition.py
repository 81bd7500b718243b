"""Vertex placement by stable hash."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.partition import HashPartitioner

NAMES = [f"v{i}" for i in range(50)]


class TestHashPartitioner:
    def test_deterministic(self):
        p = HashPartitioner(4)
        assert p.assign("v") == p.assign("v")

    def test_stable_across_instances(self):
        assert HashPartitioner(4).assign("v") == HashPartitioner(4).assign("v")

    def test_in_range(self):
        p = HashPartitioner(3)
        for i in range(100):
            assert 0 <= p.assign(f"v{i}") < 3

    def test_roughly_balanced(self):
        p = HashPartitioner(4)
        loads = [0] * 4
        for i in range(400):
            loads[p.assign(f"v{i}")] += 1
        assert max(loads) / (400 / 4) < 1.3

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_negative_partitions_rejected(self):
        with pytest.raises(ValueError):
            HashPartitioner(-2)

    def test_one_partition_takes_every_vertex(self):
        p = HashPartitioner(1)
        assert {p.assign(name) for name in NAMES} == {0}

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_placement_does_not_follow_the_hash_seed(self, hash_seed):
        # Worker processes place vertices on their own; they must agree
        # with the client whatever each process's str hash is.
        script = (
            "from repro.graph.partition import HashPartitioner\n"
            "p = HashPartitioner(7)\n"
            f"print([p.assign(n) for n in {NAMES!r}])\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        p = HashPartitioner(7)
        assert out.strip() == str([p.assign(n) for n in NAMES])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 16), st.lists(st.text(max_size=20), max_size=30))
def test_hash_always_places_in_range(parts, names):
    p = HashPartitioner(parts)
    assert all(0 <= p.assign(name) < parts for name in names)
