"""Spans around each layer's public callables, recorded from outside.

The benchmark defines the layers by the functions it wraps (``LAYER_POINTS``
below); nothing under ``src/`` knows it is being timed.  Wrappers are
installed on classes and modules *before* the deployment is built, so the
forked shard and oracle workers inherit them; the worker mains are wrapped
to name the process and to dump its table when the main returns (a forked
``multiprocessing`` child leaves through ``os._exit`` and runs no atexit).

A span is (name, start, end, parent) on ``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so comparable between the client and its
workers.  Each process keeps per-name aggregates (count, total, self time
= duration minus child spans) and the raw spans of the first requests for
the waterfalls.  Two shared bytes gate recording, so every process starts
and stops with the client's timed window:

* ``gate[0]`` — spans are recorded at all (off during set-up);
* ``gate[1]`` — raw spans are kept too (the first ``WATERFALL_REQUESTS``).
"""

from __future__ import annotations

import functools
import importlib
import json
import mmap
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

WATERFALL_REQUESTS = 200

# (module, class or None, attribute, span name).  Functions called more than
# about ten times per benchmark op (RefinableOrdering.compare, VertexView
# accessors, run_entry) are left to the program's own counters: a wrapper's
# ~1.5 us would dominate what it measures.
LAYER_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    # db / cluster.process: the deployment's client-facing surface
    ("repro.db.database", "Weaver", "run_program", "db.run_program"),
    ("repro.db.database", "Weaver", "begin_transaction", "db.begin"),
    ("repro.db.database", "Weaver", "collect_garbage", "db.gc"),
    ("repro.cluster.process", "ProcessWeaver", "run_program", "db.run_program"),
    ("repro.cluster.process", "ProcessWeaver", "begin_transaction", "db.begin"),
    ("repro.cluster.process", "ProcessWeaver", "collect_garbage", "db.gc"),
    ("repro.db.transactions", "Transaction", "commit", "db.commit"),
    ("repro.db.transactions", "Transaction", "create_edge", "db.write"),
    ("repro.db.transactions", "Transaction", "delete_edge", "db.write"),
    ("repro.db.transactions", "Transaction", "set_property", "db.write"),
    ("repro.db.transactions", "Transaction", "get_vertex", "db.read"),
    # core.gatekeeper
    ("repro.core.gatekeeper", "Gatekeeper", "commit", "gatekeeper.commit"),
    ("repro.core.gatekeeper", "Gatekeeper", "commit_prepared", "gatekeeper.commit"),
    ("repro.core.gatekeeper", "Gatekeeper", "issue_timestamp", "gatekeeper.stamp"),
    # sync_announce_all is imported by name: wrap it where it is called from
    ("repro.db.database", None, "sync_announce_all", "gatekeeper.announce"),
    ("repro.cluster.process", None, "sync_announce_all", "gatekeeper.announce"),
    # core.oracle
    ("repro.core.oracle", "TimelineOracle", "order", "oracle.order"),
    ("repro.core.oracle", "TimelineOracle", "query_order", "oracle.order"),
    ("repro.core.oracle", "TimelineOracle", "collect_below", "oracle.collect"),
    # store.kvstore / store.durable
    ("repro.store.kvstore", "TransactionalStore", "begin", "store.begin"),
    ("repro.store.durable", "DurableStore", "begin", "store.begin"),
    ("repro.store.kvstore", "StoreTransaction", "commit", "store.commit"),
    ("repro.store.kvstore", "StoreTransaction", "get", "store.read"),
    ("repro.store.kvstore", "StoreTransaction", "exists", "store.read"),
    ("repro.store.kvstore", "TransactionalStore", "get", "store.read"),
    ("repro.store.kvstore", "TransactionalStore", "exists", "store.read"),
    ("repro.store.kvstore", "TransactionalStore", "collect_below", "store.compaction"),
    ("repro.store.durable", "DurableStore", "collect_below", "store.compaction"),
    # cluster.wire
    ("repro.cluster.wire", None, "encode", "wire.codec"),
    ("repro.cluster.wire", None, "decode", "wire.codec"),
    # cluster.transport
    ("repro.cluster.transport", "ProcessTransport", "request", "transport.request"),
    ("repro.cluster.transport", "ProcessTransport", "request_all", "transport.request"),
    ("repro.cluster.transport", "ProcessTransport", "send", "transport.send"),
    ("repro.cluster.transport", "ProcessTransport", "flush", "transport.send"),
    # cluster.shard
    ("repro.cluster.shard", "ShardServer", "apply_available", "shard.apply"),
    ("repro.cluster.shard", "ShardServer", "flush_all", "shard.apply"),
    ("repro.cluster.shard", "ShardServer", "enqueue", "shard.enqueue"),
    ("repro.cluster.shard", "ShardServer", "snapshot", "shard.snapshot"),
    ("repro.cluster.shard", "ShardServer", "advance_to", "shard.snapshot"),
    ("repro.cluster.shard", "ShardServer", "collect_below", "shard.collect"),
    # programs
    ("repro.programs.framework", "ProgramExecutor", "execute", "programs.execute"),
    ("repro.programs.routing", "ShardSnapshotResolver", "resolve_many",
     "programs.resolve_many"),
)

WORKER_MAINS = (
    ("repro.cluster.process", "shard_worker_main"),
    ("repro.cluster.process", "oracle_worker_main"),
)


class Recorder:
    """One process's span table.  Forked workers inherit a copy and
    :meth:`reset` it under their own role."""

    def __init__(self) -> None:
        self.role = "client"
        self.gate = mmap.mmap(-1, 2)      # anonymous + shared across fork
        self._stack: List[list] = []      # [name, start, child seconds]
        self.agg: Dict[str, List[float]] = {}   # name -> [count, total, self]
        self.raw: List[tuple] = []

    def reset(self, role: str) -> None:
        self.role = role
        del self._stack[:]
        self.agg.clear()
        del self.raw[:]

    # -- gating (client side) --------------------------------------------

    def start(self) -> None:
        self.gate[0] = 1
        self.gate[1] = 1

    def stop_waterfalls(self) -> None:
        self.gate[1] = 0

    def stop(self) -> None:
        self.gate[0] = 0
        self.gate[1] = 0

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> list:
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self.gate[1]:
            parent = stack[-1][0] if stack else None
            self.raw.append((name, start, end, parent, len(stack)))

    def wrap(self, fn: Callable, name: str) -> Callable:
        gate, begin, end = self.gate, self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not gate[0]:
                return fn(*args, **kwargs)
            frame = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(frame)

        return traced

    def table(self) -> dict:
        return {"role": self.role, "agg": self.agg, "raw": self.raw}


def install_layer_spans(recorder: Recorder) -> None:
    """Wrap every callable in ``LAYER_POINTS`` (this process and, through
    fork, every worker started afterwards)."""
    # Import everything first: a module imported after a function it pulls
    # in by name was wrapped would be handed the wrapper, and wrap it again.
    for module_name, _, _, _ in LAYER_POINTS:
        importlib.import_module(module_name)
    for module_name, class_name, attr, span in LAYER_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        # Only what the owner itself defines: an inherited method is
        # wrapped where its base class defines it.
        if attr not in vars(owner):
            raise RuntimeError(
                f"layer point {module_name}.{class_name or ''}.{attr} is "
                "gone; update bench_e2e/tracing.py LAYER_POINTS"
            )
        setattr(owner, attr, recorder.wrap(vars(owner)[attr], span))


def install_worker_hooks(run_dir: str, recorder: Optional[Recorder]) -> None:
    """Wrap the worker mains ``ProcessWeaver`` forks into.

    Every run (traced or not) gets the pid file, which is how the harness
    finds each worker's ``/proc`` entry by role; a traced run also dumps
    the worker's span table when its main returns.
    """
    for module_name, attr in WORKER_MAINS:
        module = importlib.import_module(module_name)
        setattr(
            module, attr,
            _hooked_main(getattr(module, attr), attr, run_dir, recorder),
        )


def _hooked_main(main: Callable, attr: str, run_dir: str,
                 recorder: Optional[Recorder]) -> Callable:
    @functools.wraps(main)
    def hooked(*args, **kwargs):
        # shard_worker_main(sock, index, ...); oracle_worker_main(listener)
        role = f"shard{args[1]}" if attr == "shard_worker_main" else "oracle"
        with open(os.path.join(run_dir, f"pid-{role}"), "w") as handle:
            handle.write(str(os.getpid()))
        if recorder is not None:
            recorder.reset(role)
        try:
            return main(*args, **kwargs)
        finally:
            if recorder is not None:
                path = os.path.join(run_dir, f"spans-{role}.json")
                with open(path, "w") as handle:
                    json.dump(recorder.table(), handle)

    return hooked


def worker_pids(run_dir: str, expected: int, timeout: float = 10.0) -> Dict[str, int]:
    """role -> pid of the workers that announced themselves in ``run_dir``."""
    deadline = time.monotonic() + timeout
    while True:
        found = {}
        for entry in os.listdir(run_dir):
            if entry.startswith("pid-"):
                with open(os.path.join(run_dir, entry)) as handle:
                    text = handle.read()
                if text:
                    found[entry[4:]] = int(text)
        if len(found) >= expected or time.monotonic() > deadline:
            return found
        time.sleep(0.01)


def load_worker_tables(run_dir: str) -> List[dict]:
    tables = []
    for entry in sorted(os.listdir(run_dir)):
        if entry.startswith("spans-"):
            with open(os.path.join(run_dir, entry)) as handle:
                tables.append(json.load(handle))
    return tables


def waterfalls(requests: List[tuple], tables: List[dict]) -> List[dict]:
    """Attach every process's raw spans to the request whose interval holds
    the span's start.  A one-way enqueue applied lazily therefore shows up
    under the later read that paid for it, which is where its cost lands."""
    out = [
        {"op": index, "kind": kind, "start_us": 0.0,
         "end_us": (end - start) * 1e6, "spans": [], "_t0": start, "_t1": end}
        for index, kind, start, end in requests
    ]
    cursor_spans = []
    for table in tables:
        for name, start, end, parent, depth in table["raw"]:
            cursor_spans.append((start, end, table["role"], name, parent, depth))
    cursor_spans.sort()
    position = 0
    for start, end, role, name, parent, depth in cursor_spans:
        while position < len(out) and out[position]["_t1"] < start:
            position += 1
        if position == len(out):
            break
        request = out[position]
        if start < request["_t0"]:
            continue        # between two requests: harness time, not a layer's
        request["spans"].append({
            "role": role, "name": name, "parent": parent, "depth": depth,
            "start_us": round((start - request["_t0"]) * 1e6, 1),
            "end_us": round((end - request["_t0"]) * 1e6, 1),
        })
    for request in out:
        del request["_t0"], request["_t1"]
        request["end_us"] = round(request["end_us"], 1)
    return out
