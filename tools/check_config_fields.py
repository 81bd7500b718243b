#!/usr/bin/env python
"""Lint: every ``WeaverConfig`` field must be read somewhere in ``src/``.

A configuration field that no code reads is an option that selects
nothing: callers set it, validation accepts it, and the deployment
behaves the same whatever it holds.  This check fails when a field of
``repro.db.config.WeaverConfig`` is never read as an attribute
(``config.<field>``) in any module under ``src/`` other than
``db/config.py`` itself, unless it is exempted below with a reason.

Exit status: 0 clean, 1 violations found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG = SRC / "repro" / "db" / "config.py"

# Deliberately unread, with the reason on record.
EXEMPT = {
    "program_execution": (
        "accepted only as 'resident' for bench_e2e/workloads.py; "
        "deleted with ROADMAP 6(b)"
    ),
}


def config_fields(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "WeaverConfig":
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    yield item.target.id, item.lineno


def attributes_read(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            yield node.attr


def main() -> int:
    read = set()
    for path in sorted(SRC.rglob("*.py")):
        if path != CONFIG:
            read.update(attributes_read(path))
    fields = list(config_fields(CONFIG))
    violations = [
        (name, lineno) for name, lineno in fields
        if name not in read and name not in EXEMPT
    ]
    for name, lineno in violations:
        print(
            f"{CONFIG.relative_to(SRC.parent)}:{lineno}: WeaverConfig."
            f"{name} is read nowhere in src/ — delete the field (or "
            "EXEMPT it in tools/check_config_fields.py with a reason)."
        )
    stale = sorted(set(EXEMPT) - {name for name, _ in fields})
    for name in stale:
        print(f"EXEMPT names {name!r}, which is no WeaverConfig field.")
    if violations or stale:
        return 1
    print(
        f"config-fields check: {len(fields)} fields, "
        f"{len(EXEMPT)} exempt, 0 unread"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
