"""``tools/oracle_pairs.py`` as a shell pipeline runs it."""

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "oracle_pairs.py"


def test_a_closed_reader_is_not_an_error():
    # `oracle_pairs.py | head -1`: the reader is gone before the tool
    # writes, so every write meets a broken pipe.
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, str(TOOL), "--ops", "300"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write)
    assert result.returncode == 0, result.stderr
    assert "BrokenPipeError" not in result.stderr


def test_gc_heartbeat_rounds_are_not_program_stamps():
    # Fig 9a's twin issues 19 fresh read stamps (its non-reused
    # `program.stamp` spans); the heartbeat round that ends each of its
    # GC ticks is stamped too, and counted as a round, not a program.
    result = subprocess.run(
        [sys.executable, str(TOOL), "--ops", "4000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    first = result.stdout.splitlines()[0]
    assert first.startswith("Fig 9a:"), first
    assert "; 19 fresh program stamps; " in first, first
    assert int(first.split("; ")[-1].removesuffix(" GC rounds")) > 0
