"""Micro-benchmark of the wire codec: the canonical read.

One single-vertex read on a two-shard ``ProcessWeaver`` costs six codec
calls — the client encodes the one-way batch for the other shard and
the request, the two workers decode them, the owning worker encodes the
reply and the client decodes it.  The frames are built from literals
(``tests/wire_fixtures.py``), so this needs no deployment and measures
nothing but ``wire.encode`` / ``wire.decode``.

Reported and recorded into ``BENCH_wire.json`` (with the ``cpu_count``
it was measured on): µs per read for the six calls, µs per call, bytes
per read, and the same for two ``FrontierForward`` frames of a
traversal — the 3-hop ``forward`` and ``forward_64``, the 64-hop frame
a depth-2 ``traverse`` actually sends.  No wall-clock bar is asserted —
the deterministic guards for the codec (bytes pinned, call events under
a ceiling) live in ``test_perf_guard.py``.  Run with::

    python -m pytest benchmarks/test_micro_wire.py -q -s
"""

import os
import pathlib
import time

from repro.bench.transport_bench import record_bench
from repro.cluster import wire
from tests.wire_fixtures import CANONICAL_READ, FORWARD_64, FRAMES

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_wire.json"

_READS_PER_ATTEMPT = 1000
_ATTEMPTS = 7           # best-of-N: the host has slow phases


def _best_us(fn, argument) -> float:
    """Best-of-N mean µs of ``fn(argument)``."""
    best = float("inf")
    for _ in range(_ATTEMPTS):
        start = time.perf_counter()
        for _ in range(_READS_PER_ATTEMPT):
            fn(argument)
        best = min(best, time.perf_counter() - start)
    return best / _READS_PER_ATTEMPT * 1e6


def test_micro_wire_canonical_read(show):
    rows = []
    per_call = {}
    for name, frame in {**FRAMES, "forward_64": FORWARD_64}.items():
        payload = wire.encode(frame)
        assert wire.decode(payload) == frame
        per_call[name] = {
            "bytes": len(payload),
            "encode_us": _best_us(wire.encode, frame),
            "decode_us": _best_us(wire.decode, payload),
        }
        rows.append([
            name, len(payload),
            round(per_call[name]["encode_us"], 1),
            round(per_call[name]["decode_us"], 1),
        ])
    read = [
        per_call[name] for name, frame in FRAMES.items()
        if frame in CANONICAL_READ
    ]
    result = {
        "cpu_count": os.cpu_count() or 1,
        "wire_version": wire.WIRE_VERSION,
        "codec_calls_per_read": 2 * len(read),
        "us_per_read": sum(c["encode_us"] + c["decode_us"] for c in read),
        "bytes_per_read": sum(c["bytes"] for c in read),
        "frames": per_call,
    }
    recorded = record_bench(BENCH_PATH, "canonical_read", result)
    show(
        f"Wire codec v{wire.WIRE_VERSION}: the canonical read's frames",
        headers=["frame", "bytes", "encode µs", "decode µs"],
        rows=rows,
        lines=[
            f"six codec calls of one read: {result['us_per_read']:.1f} µs, "
            f"{result['bytes_per_read']} bytes",
            f"cpu_count: {result['cpu_count']}  recorded: {recorded}",
        ],
    )
    assert result["bytes_per_read"] == sum(
        len(wire.encode(frame)) for frame in CANONICAL_READ
    )
