"""The end-to-end benchmark pins functions by name; make that pin a
tier-1 failure instead of a benchmark-pipeline one.

``bench_e2e/tracing.py`` wraps every ``LAYER_POINTS`` entry where its
owner *defines* it (``vars(owner)``, not inherited) and hooks the
``WORKER_MAINS`` module bindings the process deployment forks through.
A refactor that moves or renames one of them must update the benchmark
in its own change; this test says which entry went missing.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench_e2e"

pytestmark = pytest.mark.skipif(
    not (BENCH / "tracing.py").exists(), reason="bench_e2e/ not present"
)


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("tracing", None)


def test_every_layer_point_is_defined_by_its_owner(tracing):
    for module_name, class_name, attr, span in tracing.LAYER_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert attr in vars(owner), (
            f"layer point {module_name}.{class_name or ''}.{attr} "
            f"({span}) is not defined by its owner (inherited or gone)"
        )


def test_every_worker_main_is_a_module_binding(tracing):
    for module_name, attr in tracing.WORKER_MAINS:
        module = importlib.import_module(module_name)
        assert callable(vars(module).get(attr)), (
            f"worker main {module_name}.{attr} is gone; the benchmark "
            "hooks it to find and trace the forked workers"
        )
