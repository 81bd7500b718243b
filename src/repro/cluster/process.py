"""The real multiprocess Weaver deployment.

:class:`ProcessWeaver` runs the same client-side
:class:`~repro.db.database.Coordinator` as the in-process
:class:`~repro.db.database.Weaver` — same parts from the same
:func:`~repro.cluster.builder.build_cluster`, same commit / heartbeat /
advance / GC protocol — over a
:class:`~repro.cluster.transport.ProcessTransport`: every shard server
and the timeline oracle run as separate OS processes speaking
length-prefixed :mod:`~repro.cluster.wire` frames over UNIX sockets.
What lives here is process lifecycle only: spawning and reaping
workers, SIGKILL recovery, placement gossip, program dispatch to the
workers, and folding their stats back into the client registry.

Node programs run at the shards (section 4.1), on this deployment as
on the simulated twin that hosts the same engine: a program crosses the
wire as ``(name, init)`` — its registered name and the instance's own
``vars()`` — in one :class:`~repro.cluster.messages.ProgramStart` to
the start vertex's owning shard (the frame also carries that shard's
heartbeats and ``advance_to`` — one round trip per read).  Each worker
rebuilds the program, runs its slice of every round
(:func:`~repro.programs.framework.run_round`) against its local
snapshot, and hands next frontiers worker-to-worker as
``FrontierForward`` frames — O(shards) wire messages per round, not
O(frontier).  The coordinating worker detects round quiescence and
replies with only the aggregated result and read set.  The request and
the reading of the reply are ``WritePath._program_start`` /
``_program_result``; there is no client-side way to run a program here.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import socket
import tempfile
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

# sync_announce_all, shard_worker_main and oracle_worker_main are module
# bindings on purpose: the benchmark's tracing hooks wrap them here.
from ..core.gatekeeper import sync_announce_all  # noqa: F401
from ..core.vclock import VectorTimestamp
from ..db.config import WeaverConfig
from ..db.database import Coordinator
from ..db.operations import partition_image
from ..db.transactions import Transaction
from ..errors import ClusterError, ProgramError
from ..obs.collect import scalar_fields
from ..programs.framework import ProgramResult
from .builder import build_cluster
from .transport import ProcessTransport, TransportError
from .wire import WireError
from .worker import (
    OracleProxy,
    decode_spans,
    oracle_worker_main,
    shard_worker_main,
    span_count,
)


# -- the deployment -------------------------------------------------------


class ProcessWeaver(Coordinator):
    """A Weaver deployment whose shards and oracle are OS processes."""

    def __init__(self, config: Optional[WeaverConfig] = None):
        config = config or WeaverConfig()
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise ClusterError(
                "process deployment requires the fork start method"
            ) from exc
        transport = ProcessTransport()
        self._tmpdir = tempfile.mkdtemp(prefix="weaver-")
        self._oracle_path = os.path.join(self._tmpdir, "oracle.sock")
        # Bind + listen before forking: connects succeed via the backlog
        # no matter when the oracle process reaches accept().
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self._oracle_path)
        listener.listen(16)
        self._oracle_proc = self._mp.Process(
            target=oracle_worker_main, args=(listener,), daemon=True
        )
        self._oracle_proc.start()
        listener.close()
        super().__init__(
            build_cluster(
                config,
                oracle=OracleProxy(self._oracle_path),
                with_shards=False,
            ),
            transport,
        )
        self.metrics.absorb("transport", lambda: transport.stats)
        self.metrics.register_collector(transport.queue_depths)
        self.metrics.register_collector(self._process_metrics)
        transport.register("client", self._on_worker_events)

        self._procs: Dict[int, Any] = {}
        #: Worker↔worker listening-socket paths, one per shard index.
        #: Bound before the owning worker forks, so peer connects land
        #: in the backlog no matter when the worker reaches accept().
        self._peer_paths: Dict[int, str] = {
            index: os.path.join(self._tmpdir, f"peer{index}.sock")
            for index in range(self.config.num_shards)
        }
        #: Last absorbed counters of the shard workers (summed by name)
        #: and of the oracle process, served after close() or a death.
        self._worker_metrics: Dict[str, float] = {}
        self._oracle_metrics: Dict[str, float] = {}
        self._epoch = 0
        self.recoveries = 0
        self._closed = False
        self._live: Optional[List[int]] = None
        for index in range(self.config.num_shards):
            self._spawn_worker(index)

    # -- workers --------------------------------------------------------

    def _spawn_worker(
        self,
        index: int,
        epoch: int = 0,
        image: Optional[tuple] = None,
        recovery_ts: Optional[VectorTimestamp] = None,
        store_path: Optional[str] = None,
        placement: Optional[Dict[str, int]] = None,
    ) -> None:
        parent_sock, child_sock = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        # Rebind this worker's peer listener fresh: a replacement must
        # not accept frontier frames queued for its dead predecessor.
        peer_path = self._peer_paths[index]
        try:
            os.unlink(peer_path)
        except OSError:
            pass
        peer_listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        peer_listener.bind(peer_path)
        peer_listener.listen(16)
        proc = self._mp.Process(
            target=shard_worker_main,
            args=(
                child_sock,
                index,
                self.config.num_gatekeepers,
                self._oracle_path,
                epoch,
                image,
                recovery_ts,
                store_path,
            ),
            kwargs=dict(
                peer_listener=peer_listener,
                peer_paths=dict(self._peer_paths),
                placement=placement,
            ),
            daemon=True,
        )
        proc.start()
        child_sock.close()
        peer_listener.close()
        self._procs[index] = proc
        self.transport.add_channel(self.shard_name(index), parent_sock)
        self._live = None

    def _on_worker_events(self, src: str, kind: str, record) -> None:
        """Record the worker-side spans a reply frame carried under their
        original trace ids — `repro trace` chains then assemble
        identically to the in-process deployments.  With a sink they are
        decoded and emitted now (one that does not decode fails the
        request it rode on); without one the record is kept encoded."""
        count = span_count(src, record)
        tracer = self.tracer
        if not tracer.has_sinks:
            tracer.emit_encoded(count, lambda: decode_spans(src, record))
            return
        try:
            spans = decode_spans(src, record)
        except WireError as exc:
            raise TransportError(str(exc), src) from exc
        for trace_id, span_kind, node, attrs in spans:
            tracer.emit(trace_id, span_kind, node=node, **attrs)

    def _live_shards(self) -> List[int]:
        # Cached between channel changes (spawn, recovery, close).
        if self._live is None:
            names = set(self.transport.channels())
            self._live = [
                i for i in self._all_shards
                if self._shard_names[i] in names
            ]
        return self._live

    def _flush_except(self, busy) -> None:
        """Write out what is buffered for every live shard not in
        ``busy`` (those get it inside their next request frame)."""
        for shard_index in self._live_shards():
            if shard_index not in busy:
                self.transport.flush(self._shard_names[shard_index])

    # The benchmark's layer spans wrap these where each deployment
    # class defines them, so each binds the shared implementation in its
    # own class body.
    begin_transaction = Coordinator.begin_transaction
    collect_garbage = Coordinator.collect_garbage
    run_program = Coordinator.run_program

    def _on_commit(self, tx: Transaction, placed: Dict[str, int]) -> None:
        # One-way placement gossip: every worker partitions next
        # frontiers locally, so each must know who owns new vertices.
        # FIFO per channel — the delta is flushed before any later
        # request (e.g. program_start) on the same socket.
        if placed:
            for shard_index in self._live_shards():
                self.transport.send(
                    "client", self.shard_name(shard_index),
                    "placement", placed,
                )

    # -- node programs --------------------------------------------------

    # ``program`` must be an instance of its ``PROGRAM_REGISTRY`` class
    # that its own ``vars()`` rebuild: anything else is a ProgramError
    # before anything is stamped.
    _ship = staticmethod(Coordinator._wire_program)

    def _execute(
        self, shipped: tuple, frontier: List[Tuple[str, Any]],
        ts: VectorTimestamp, query_id: int, trace_id: int,
    ) -> ProgramResult:
        """At the shards: one ``program_start`` request to the start
        vertex's owner, which coordinates the rounds (frontiers travel
        peer-to-peer) and replies with the aggregated result."""
        live = self._live_shards()
        if not live:
            raise ClusterError("no live shard workers")
        coordinator, ps = self._program_start(
            shipped, frontier, ts, query_id, trace_id, live
        )
        # Heartbeats and advance_to are buffered per channel.  Every
        # other shard's go out first, so they sit in its socket buffer
        # before the coordinator can forward it any of this program; the
        # coordinator's own ride in the request.
        self._flush_except({coordinator})
        try:
            payload = self.transport.request(
                "client", self.shard_name(coordinator), "program_start", ps
            )
        except (TransportError, WireError) as exc:
            # WireError: start params the wire refuses to carry.
            raise ProgramError(str(exc)) from exc
        return self._program_result(payload)

    # -- failure handling -----------------------------------------------

    def kill_shard_worker(self, index: int) -> None:
        """SIGKILL one shard worker mid-flight (chaos testing)."""
        proc = self._procs.get(index)
        if proc is None or not proc.is_alive():
            raise ClusterError(f"no live worker for shard {index}")
        proc.kill()
        proc.join(timeout=10)

    def recover_shard(self, index: int) -> None:
        """Replace a dead worker: epoch barrier on the survivors, then a
        fresh process reloading the partition from the backing store.

        Buffered messages to the dead worker are discarded with its
        channel — their effects are already durable in the store the
        replacement reloads from.
        """
        name = self.shard_name(index)
        self.transport.remove_channel(name)
        self._live = None
        proc = self._procs.pop(index, None)
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=10)
        # Epoch barrier: gatekeepers restart their clocks in the new
        # epoch; survivors flush queued work and re-baseline seqnos.
        # (The manager has no local shard servers here — the workers ARE
        # the shards, reached by RPC below.)
        self._epoch = self.manager.advance_epoch()
        self.transport.flush()
        self._request_all_shards("advance_epoch", self._epoch)
        self._reset_channels()
        recovery_ts = self.gatekeepers[0].issue_timestamp()
        if (
            self.config.store_backend == "sqlite"
            and self.config.store_path != ":memory:"
        ):
            # Real crash recovery: the replacement worker reopens the
            # WAL-backed database itself and carves out its partition —
            # nothing graph-shaped crosses the fork.  Checkpoint first
            # so the worker's read-only open sees every commit even if
            # the WAL file is sidestepped by its snapshot read.
            self.store.wal_checkpoint()
            self._spawn_worker(
                index,
                epoch=self._epoch,
                recovery_ts=recovery_ts,
                store_path=self.config.store_path,
            )
        else:
            placement = dict(self.mapping.items())
            self._spawn_worker(
                index, epoch=self._epoch,
                image=partition_image(
                    self.store.snapshot(), placement, index
                ),
                recovery_ts=recovery_ts, placement=placement,
            )
        self.recoveries += 1

    # -- statistics ------------------------------------------------------

    def _absorb_remote_stats(self) -> None:
        """Ask every worker and the oracle process for its own registry
        snapshot (counters cumulative since that process started).  A
        process that does not answer keeps its last absorbed counters."""
        try:
            totals: Counter = Counter()
            for snap in self._request_all_shards("stats", None):
                totals.update(snap)
            self._worker_metrics = dict(totals)
        except TransportError:
            pass
        try:
            self._oracle_metrics = self.oracle._call("stats", None)
        except TransportError:
            pass

    def _process_metrics(self) -> Dict[str, float]:
        """The remote processes' counters, each named by that process
        through the same collectors the in-process deployments register.

        The client registers no shard, oracle or ``program.*`` collector
        of its own: the ``program.*`` values here are the client's
        readiness counters plus the workers' rounds, so program metrics
        stay deployment-neutral.  After ``close()`` the last absorbed
        counters are served from cache.
        """
        if not self._closed:
            self._absorb_remote_stats()
        out: Dict[str, float] = {
            "process.workers": len(self._live_shards()),
            "process.recoveries": self.recoveries,
        }
        out.update(self._worker_metrics)
        out.update(self._oracle_metrics)
        for key, value in scalar_fields(self.executor.stats).items():
            name = f"program.{key}"
            out[name] = value + out.get(name, 0)
        return out

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down cleanly; kill whatever will not die."""
        if self._closed:
            return
        try:
            self.transport.flush()
        except TransportError:
            pass
        # Final absorb before the processes go away: their counters
        # survive into post-close snapshots.
        self._absorb_remote_stats()
        self._closed = True
        for index in list(self._procs):
            name = self.shard_name(index)
            try:
                self.transport.request("client", name, "shutdown", None)
            except TransportError:
                pass
        self.transport.close()
        self._live = None
        for proc in self._procs.values():
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
        self._procs.clear()
        self.oracle.shutdown()
        self.oracle.close()
        self._oracle_proc.join(timeout=10)
        if self._oracle_proc.is_alive():
            self._oracle_proc.kill()
            self._oracle_proc.join(timeout=10)
        # The oracle and peer listeners' socket files go with it.
        shutil.rmtree(self._tmpdir, ignore_errors=True)
        if hasattr(self.store, "close"):
            self.store.close()

    def __enter__(self) -> "ProcessWeaver":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
