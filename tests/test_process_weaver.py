"""ProcessWeaver end to end: the real-transport deployment must behave
exactly like the in-process one.

Three claims, in rising order of ambition: (1) the same operations
produce the same program results as the direct :class:`Weaver`; (2) a
transaction's trace chain — client submit through cross-process shard
apply — has the same shape in both deployments, i.e. trace ids survive
the wire (the spans literally cross an OS process boundary and come
back); (3) a Zipf-contended workload survives a SIGKILLed shard worker
mid-run with a recovery, zero strict-serializability violations, and a
clean history digest.  A read whose coordinating worker is SIGKILLed
before it answers fails by the channel's name, and recovery serves it.
"""

import os
import random
import signal
import struct
import threading
import time

import pytest

from repro.cluster import wire
from repro.cluster.process import ProcessWeaver
from repro.core.vclock import Ordering, VectorTimestamp
from repro.db import Weaver, WeaverConfig
from repro.errors import ProgramError
from repro.obs import assemble_chain
from repro.verify.history import History, HistoryChecker, decided_order
from repro.verify.online import OnlineChecker
from repro.programs.library import (
    Bfs,
    CollectReachable,
    CountEdges,
    GetNode,
    Reachability,
    params,
)
from repro.workloads.chaos import ProcessClient, SoakReport


def load_tree(db, n=24, fanout=3):
    """A seeded tree plus properties, identical across deployments."""
    tx = db.begin_transaction()
    handles = [tx.create_vertex(f"p{i}") for i in range(n)]
    for i in range(1, n):
        tx.create_edge(handles[(i - 1) // fanout], handles[i])
    for i, handle in enumerate(handles):
        tx.set_property(handle, "depth", i % 5)
    tx.commit()
    db.drain()
    return handles


@pytest.fixture(scope="module")
def pair():
    config = WeaverConfig(num_shards=2, num_gatekeepers=2)
    direct = Weaver(WeaverConfig(num_shards=2, num_gatekeepers=2))
    with ProcessWeaver(config) as process:
        load_tree(direct)
        load_tree(process)
        yield direct, process


class TestParityWithDirectWeaver:
    def test_reachable_sets_match(self, pair):
        direct, process = pair
        for root in ("p0", "p3", "p23"):
            want = sorted(direct.run_program(CollectReachable(), root).results)
            got = sorted(process.run_program(CollectReachable(), root).results)
            assert got == want

    def test_reachability_verdicts_match(self, pair):
        direct, process = pair
        for src, dst in (("p0", "p23"), ("p23", "p0"), ("p5", "p17")):
            # An empty result set means unreachable (Fig 11 semantics).
            want = direct.run_program(
                Reachability(), src, params(target=dst)
            ).results
            got = process.run_program(
                Reachability(), src, params(target=dst)
            ).results
            assert got == want

    def test_vertex_reads_match(self, pair):
        direct, process = pair
        for handle in ("p0", "p7", "p19"):
            want = direct.run_program(GetNode(), handle).value
            got = process.run_program(GetNode(), handle).value
            assert got == want

    def test_edge_counts_match(self, pair):
        direct, process = pair
        for handle in ("p0", "p1", "p23"):
            want = direct.run_program(CountEdges(), handle).value
            got = process.run_program(CountEdges(), handle).value
            assert got == want


class TestTraceChainParity:
    """Satellite: trace ids cross the process boundary and the replayed
    worker spans reassemble into the same chain the direct deployment
    produces natively."""

    @staticmethod
    def chain_shape(db):
        """(kind, node) sequence for one two-shard transaction's trace."""
        setup = db.begin_transaction()
        handles = [setup.create_vertex() for _ in range(8)]
        setup.commit()
        a = handles[0]
        b = next(
            h for h in handles if db._shard_of(h) != db._shard_of(a)
        )
        tx = db.begin_transaction()
        tx.set_property(a, "k", 1)
        tx.set_property(b, "k", 1)
        tx.commit()
        db.drain()
        spans = assemble_chain(db.tracer, tx.trace_id)
        return [
            (span.kind, span.node)
            for span in spans
            if span.kind != "oracle.decide"
        ]

    def test_two_shard_transaction_chains_match(self):
        config = WeaverConfig(num_shards=2, num_gatekeepers=1)
        direct_chain = self.chain_shape(
            Weaver(WeaverConfig(num_shards=2, num_gatekeepers=1))
        )
        with ProcessWeaver(config) as process:
            process_chain = self.chain_shape(process)
        # Same spans, same nodes: the worker-side shard.enqueue and
        # shard.apply spans crossed the wire under the original trace id.
        assert sorted(process_chain) == sorted(direct_chain)
        kinds = [kind for kind, _node in process_chain]
        assert kinds[:3] == ["client.submit", "gatekeeper.stamp",
                             "store.commit"]
        assert kinds.count("shard.enqueue") == 2
        assert kinds.count("shard.apply") == 2
        for kind, node in process_chain:
            if kind in ("shard.enqueue", "shard.apply"):
                assert node in ("shard0", "shard1")


class TestChaosKillAndRecover:
    """Satellite: the acceptance run from the issue — Zipf workload,
    SIGKILL one worker mid-run, recover, and the referee finds a clean,
    digestible history."""

    def test_zipf_workload_survives_worker_kill(self):
        config = WeaverConfig(num_shards=2, num_gatekeepers=2)
        history = History()
        report = SoakReport(seed=17, transport="process")

        with ProcessWeaver(config) as db:
            history.attach(db.tracer)
            # The soak's own refereed client: tagged Zipf writes, GetNode
            # reads, one txn.commit / program.read span per ack.
            client = ProcessClient(db, report, 10, 0.8, seed=17)
            # Setup: every vertex exists and carries an initial tag.
            client.setup()

            def mix(rounds):
                for i in range(rounds):
                    client.write()
                    if i % 3 == 2:
                        client.read()

            mix(15)
            db.kill_shard_worker(0)
            db.recover_shard(0)
            mix(15)
            db.drain()
            client.read(client.vertices[0])
            client.read(client.vertices[1])

            assert db.recoveries == 1
            checker = HistoryChecker(history, decided_order(db.oracle))
            violations = checker.check()

        assert violations == [], "\n".join(str(v) for v in violations)
        assert len(history.commits) >= 30
        assert len(history.reads) >= 7
        assert set(history.applies)  # worker apply spans crossed the wire
        digest = history.digest()
        assert len(digest) == 64
        assert digest == history.digest()  # stable over re-rendering


class TestACoordinatorKilledWithAReadInFlight:
    """The worker a read is sent to is stopped, so the request waits in
    its socket, and SIGKILLed 0.3 s later: the read fails by the
    channel's name well inside ``REPLY_DEADLINE``, and after
    ``recover_shard`` the same read answers as before.  ``GetNode`` is
    the one-pass read, ``Bfs`` the general round."""

    @pytest.mark.parametrize("program, start_params", [
        (GetNode(), None), (Bfs(), params(depth=0, max_depth=2)),
    ], ids=["get_node", "traverse"])
    def test_the_read_fails_by_name_and_recovery_answers(
        self, program, start_params
    ):
        with ProcessWeaver(WeaverConfig(num_shards=2)) as db:
            load_tree(db)
            owner = db._shard_of("p0")
            answer = db.run_program(program, "p0", start_params).results
            pid = db._procs[owner].pid
            os.kill(pid, signal.SIGSTOP)
            killer = threading.Timer(0.3, os.kill, (pid, signal.SIGKILL))
            killer.start()
            began = time.monotonic()
            try:
                with pytest.raises(
                    ProgramError, match=f"channel to 'shard{owner}' broke"
                ):
                    db.run_program(program, "p0", start_params)
                assert time.monotonic() - began < 5
            finally:
                killer.join()
            db.recover_shard(owner)
            assert db.run_program(program, "p0", start_params).results == (
                answer
            )


class TestShuffledSpanDelivery:
    """Satellite: span arrival order is a transport artifact, not a
    semantic one.  Worker spans ride reply frames and can interleave
    arbitrarily with client-side spans, so the history must reconstruct
    the same record multiset — same digest, same verdict — from any
    permutation of a real cross-process run's span stream."""

    def test_replayed_shuffled_spans_reproduce_history(self):
        config = WeaverConfig(num_shards=2, num_gatekeepers=2)
        history = History()
        recorded = []
        report = SoakReport(seed=23, transport="process")

        with ProcessWeaver(config) as db:
            db.tracer.add_sink(recorded.append)
            history.attach(db.tracer)
            client = ProcessClient(db, report, 6, 0.8, seed=23)
            client.setup()

            for i in range(8):
                client.write()
                if i % 3 == 2:
                    client.read()
            # A kill/recover mid-run puts applies from two shard epochs
            # in the stream — the hard case for order reconstruction.
            db.kill_shard_worker(1)
            db.recover_shard(1)
            for _ in range(4):
                client.write()
            db.drain()
            client.read(client.vertices[0])

            compare = decided_order(db.oracle)
            base_digest = history.digest()
            assert HistoryChecker(history, compare).check() == []
            assert any(s.kind == "shard.apply" for s in recorded)

            rng = random.Random(7)
            for _ in range(3):
                shuffled = list(recorded)
                rng.shuffle(shuffled)
                replayed = History()
                online = OnlineChecker(compare)
                for span in shuffled:
                    replayed.consume(span)
                    online.consume(span)
                assert replayed.digest() == base_digest
                assert online.digest() == base_digest
                assert HistoryChecker(replayed, compare).check() == []
                assert online.finalize() == []


class TestOneCoordinator:
    """Both deployments run the same client-side coordinator: the same
    script gives the same placement, answers and GC accounting whether
    the shards are in-process objects or worker processes."""

    @staticmethod
    def script(db):
        tx = db.begin_transaction()
        handles = [tx.create_vertex(f"c{i}") for i in range(12)]
        for i in range(1, 12):
            tx.create_edge(handles[(i - 1) // 2], handles[i], f"e{i}")
        tx.commit()
        applied = db.drain()
        before = db.checkpoint()
        tx = db.begin_transaction()
        tx.delete_edge("c0", "e1")
        tx.set_property("c5", "k", 1)
        tx.commit()
        then = sorted(
            db.run_program(CollectReachable(), "c0", at=before).results
        )
        now = sorted(db.run_program(CollectReachable(), "c0").results)
        reclaimed = db.collect_garbage()
        return {
            "placement": [db._shard_of(h) for h in handles],
            "applied": applied,
            "then": then,
            "now": now,
            "node": db.run_program(GetNode(), "c5").value,
            "gc_keys": sorted(reclaimed),
            "gc_graph": reclaimed["graph"],
            "programs_run": db.programs_run,
        }

    @pytest.mark.parametrize("partitioner", ["round_robin", "hash"])
    def test_same_script_same_outcome(self, partitioner):
        def config():
            return WeaverConfig(
                num_shards=3, num_gatekeepers=2, partitioner=partitioner
            )

        direct = self.script(Weaver(config()))
        with ProcessWeaver(config()) as db:
            process = self.script(db)
        assert process == direct
        assert direct["gc_keys"] == ["graph", "oracle", "store"]
        assert direct["gc_graph"] > 0
        assert len(direct["then"]) == 12 and len(direct["now"]) < 12
        if partitioner == "hash":
            # Not the round-robin fallback ProcessWeaver used to apply.
            assert direct["placement"] != [i % 3 for i in range(12)]


class TestOneWayReadiness:
    """The client asks no shard whether it is ready: heartbeats and a
    one-way ``advance_to`` ride ahead of (or inside) the program
    request, and the shards check for themselves."""

    @staticmethod
    def two_shards():
        return ProcessWeaver(WeaverConfig(num_shards=2, num_gatekeepers=2))

    def test_fresh_cross_shard_write_is_always_seen(self):
        """Commit an edge on a shard-1 vertex, then at once traverse
        from a shard-0 root through it: shard 1 may hear of the program
        from shard 0 before it has read the client's frame carrying the
        write, and must catch up first."""
        from repro.db.client import WeaverClient

        with self.two_shards() as db:
            client = WeaverClient(db)
            tx = db.begin_transaction()
            root = tx.create_vertex("root")     # round robin: shard 0
            hub = tx.create_vertex("hub")       # shard 1
            leaves = [tx.create_vertex(f"leaf{i}") for i in range(200)]
            tx.create_edge(root, hub)
            tx.commit()
            assert (db._shard_of(root), db._shard_of(hub)) == (0, 1)
            for leaf in leaves:
                client.create_edge(hub, leaf)
                assert leaf in client.traverse(root, max_depth=2)

    @staticmethod
    def hot_and_cold(db):
        """One vertex per shard; returns the one on shard 0."""
        tx = db.begin_transaction()
        hot = tx.create_vertex("hot")
        tx.create_vertex("cold")
        tx.commit()
        assert db._shard_of(hot) == 0
        return hot

    def test_cold_shard_keeps_up_with_a_hot_neighbour(self):
        """1,000 x (commit on shard 0, read on shard 0): every read
        storms, so shard 1 is advanced once per read and its queues
        hold the last storm's heartbeats only."""
        with self.two_shards() as db:
            hot = self.hot_and_cold(db)
            for i in range(1000):
                tx = db.begin_transaction()
                tx.set_property(hot, "n", i)
                tx.commit()
                read = db.run_program(GetNode(), hot).value
                assert read["properties"]["n"] == i
            assert db.executor.stats.readiness_storms == 1000
            stats = db.transport.request("client", "shard1", "stats", None)
            assert stats["shard.nops_applied"] >= 1000
            # Every gatekeeper NOP goes to every shard: what shard 1 has
            # not applied yet is what its queues still hold.
            sent = sum(gk.stats.nops_sent for gk in db.gatekeepers)
            queued = sent - stats["shard.nops_applied"]
            assert 0 <= queued <= len(db.gatekeepers)

    def test_cold_shard_hears_nothing_while_nothing_changes(self):
        """1,000 reads after one commit: the first makes both shards
        ready, the other 999 are one frame each to shard 0 — shard 1's
        whole stats reply stands where the first read left it."""
        with self.two_shards() as db:
            hot = self.hot_and_cold(db)
            db.run_program(GetNode(), hot)
            after_first = db.transport.request(
                "client", "shard1", "stats", None
            )
            assert after_first["shard.transactions_applied"] == 1
            frames = db.transport.stats.frames_sent
            for _ in range(999):
                db.run_program(GetNode(), hot)
            # One frame per read, and shard 0 got every one of them.
            assert db.transport.stats.frames_sent == frames + 999
            after_last = db.transport.request(
                "client", "shard1", "stats", None
            )
            assert after_last == after_first
            # ... which compares, among the rest, its receive side:
            for name in (
                "shard.nops_applied", "shard.transactions_applied",
                "transport.worker.frames_received",
                "transport.worker.messages_received",
                "transport.worker.bytes_received",
            ):
                assert name in after_last
            assert db.executor.stats.readiness_storms == 1
            assert sum(gk.stats.nops_sent for gk in db.gatekeepers) == (
                len(db.gatekeepers)
            )

    def test_repeated_checkpoint_read_sends_nothing_but_the_program(self):
        with self.two_shards() as db:
            load_tree(db, n=6)
            point = db.checkpoint()
            first = db.run_program(GetNode(), "p0", at=point).value
            stats, wire_stats = db.executor.stats, db.transport.stats
            storms = stats.readiness_storms
            hits = stats.readiness_fastpath_hits
            nops = sum(gk.stats.nops_sent for gk in db.gatekeepers)
            before = (wire_stats.requests, wire_stats.frames_sent)
            assert db.run_program(GetNode(), "p0", at=point).value == first
            assert stats.readiness_storms == storms
            assert stats.readiness_fastpath_hits == hits + 1
            assert sum(gk.stats.nops_sent for gk in db.gatekeepers) == nops
            # One request (program_start) in one frame.
            assert wire_stats.requests == before[0] + 1
            assert wire_stats.frames_sent == before[1] + 1

    def test_unready_shard_fails_by_name_not_stale(self):
        """No heartbeats reach the shards: they must refuse to snapshot,
        and the refusal must come back as a ``ProgramError``."""
        from repro.errors import ProgramError

        with self.two_shards() as db:
            load_tree(db, n=6)
            db._enqueue = lambda *args: None    # client side only
            with pytest.raises(
                ProgramError,
                match="shard[01] not ready for .* despite heartbeats",
            ):
                db.run_program(GetNode(), "p0")

    def test_weaver_refuses_an_unready_shard_by_the_same_name(self):
        """The in-process shards refuse with the workers' error."""
        from repro.errors import ProgramError

        db = Weaver(WeaverConfig(num_shards=2, num_gatekeepers=2))
        load_tree(db, n=6)
        db._enqueue = lambda *args: None
        with pytest.raises(
            ProgramError,
            match="shard[01] not ready for .* despite heartbeats",
        ):
            db.run_program(GetNode(), "p0")

    def test_flush_to_killed_worker_raises_transport_error(self):
        from repro.cluster.transport import TransportError

        with self.two_shards() as db:
            load_tree(db, n=6)
            assert db._shard_of("p0") == 0
            db.kill_shard_worker(1)
            with pytest.raises(TransportError):
                db.run_program(GetNode(), "p0")


class TestTheOracleProcessKilled:
    """The client side of an oracle death (ROADMAP 2): each client
    request to the oracle fails by the channel's name, and a snapshot
    still serves the oracle's last counters.  The shard workers' side is
    ROADMAP 15."""

    def test_oracle_requests_fail_by_name_and_counters_stay(self):
        from repro.cluster.transport import REPLY_DEADLINE, TransportError
        from repro.core.vclock import VectorTimestamp
        from repro.db import WeaverClient

        config = WeaverConfig(
            num_gatekeepers=2, num_shards=2, announce_every=10
        )
        with ProcessWeaver(config) as db:
            client = WeaverClient(db)
            client.create_vertex("a")
            for i in range(6):
                client.set_property("a", "k", i)
            db.drain()
            before = db.metrics.snapshot()
            assert before["oracle.events"] > 0
            db._oracle_proc.kill()
            db._oracle_proc.join(timeout=10)
            started = time.monotonic()
            with pytest.raises(TransportError) as gc_failed:
                db.collect_garbage()
            a = VectorTimestamp(0, (1, 0), 0)
            b = VectorTimestamp(0, (0, 1), 1)
            with pytest.raises(TransportError) as referee_failed:
                decided_order(db.oracle)(a, b)
            assert time.monotonic() - started < REPLY_DEADLINE
            assert gc_failed.value.channel == "oracle"
            assert referee_failed.value.channel == "oracle"
            after = db.metrics.snapshot()
            oracle = [name for name in before if name.startswith("oracle.")]
            assert len(oracle) == 8
            assert {n: after[n] for n in oracle} == {
                n: before[n] for n in oracle
            }
            assert client.get_node("a")["properties"] == {"k": 5}


def _length_prefixed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


class TestAMalformedFrameOnAnOracleConnection:
    """ROADMAP 2's cell for the oracle process: a frame that does not
    decode, or decodes to a value that is not an envelope, on one oracle
    connection drops that connection only, as it does on a shard
    worker's peer connection; the oracle keeps serving every other one."""

    @pytest.mark.parametrize(
        "frame",
        [
            pytest.param(
                _length_prefixed(b"\xff\x00\x01"), id="garbage-body"
            ),
            pytest.param(
                _length_prefixed(wire.encode(7)), id="not-an-envelope"
            ),
            pytest.param(
                _length_prefixed(wire.encode(["order", None])),
                id="a-list-not-an-envelope",
            ),
        ],
    )
    def test_the_oracle_drops_that_connection_and_keeps_serving(self, frame):
        import socket

        from repro.db import WeaverClient

        config = WeaverConfig(
            num_gatekeepers=2, num_shards=2, announce_every=10
        )
        with ProcessWeaver(config) as db:
            client = WeaverClient(db)
            client.create_vertex("a")
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                raw.settimeout(10.0)
                raw.connect(db._oracle_path)
                raw.sendall(frame)
                # No reply: the oracle closes this connection.
                assert raw.recv(1) == b""
            finally:
                raw.close()
            assert db._oracle_proc.is_alive()
            for i in range(6):
                client.set_property("a", "k", i)
            assert client.get_node("a")["properties"] == {"k": 5}
            db.drain()
            assert db.metrics.snapshot()["oracle.events"] > 0
            assert db.collect_garbage()["oracle"] > 0
            snap = db.metrics.snapshot()
            assert snap["oracle.events_collected"] > 0
            assert db._oracle_proc.is_alive()


class TestAnOracleRequestRefused:
    """ROADMAP 2's cell for a request the oracle refuses: a kind its
    table does not hold, or an ``order`` it cannot decide, fails with a
    ``TransportError`` on the ``oracle`` channel naming the refusal, and
    the oracle answers the next GC and the next referee call."""

    # Concurrent, and in an epoch no gatekeeper reaches: no order is
    # established between them, so ``order`` gets as far as ``prefer``.
    A = VectorTimestamp(9, (1000, 0), 0)
    B = VectorTimestamp(9, (0, 1000), 1)

    @pytest.mark.parametrize(
        "send, refusal",
        [
            pytest.param(
                lambda oracle, a, b: oracle._call("query", (a, b)),
                "unknown oracle request 'query'",
                id="a-removed-kind",
            ),
            pytest.param(
                lambda oracle, a, b: oracle.order(
                    a, b, prefer=Ordering.EQUAL
                ),
                "OrderingError",
                id="order-prefer-equal",
            ),
        ],
    )
    def test_it_fails_by_name_and_the_oracle_serves_on(self, send, refusal):
        from repro.cluster.transport import TransportError
        from repro.db import WeaverClient

        config = WeaverConfig(
            num_gatekeepers=2, num_shards=2, announce_every=10
        )
        with ProcessWeaver(config) as db:
            client = WeaverClient(db)
            client.create_vertex("a")
            for i in range(6):
                client.set_property("a", "k", i)
            db.drain()
            with pytest.raises(TransportError, match=refusal) as refused:
                send(db.oracle, self.A, self.B)
            assert refused.value.channel == "oracle"
            assert db._oracle_proc.is_alive()
            assert db.collect_garbage()["oracle"] > 0
            assert decided_order(db.oracle)(self.A, self.B) is None
            assert client.get_node("a")["properties"] == {"k": 5}


class TestTheOracleProcessAnswersAsInProcess:
    """Each kind the oracle process serves answers as a
    :class:`TimelineOracle` fed the same requests, and its ``oracle.*``
    counters move as that oracle's do."""

    A = VectorTimestamp(0, (1, 0), 0)
    B = VectorTimestamp(0, (0, 1), 1)
    C = VectorTimestamp(0, (2, 0), 0)
    D = VectorTimestamp(0, (0, 2), 1)

    SCRIPTS = {
        "a-decision": [("order", "AB")],
        "prefer-after": [("order", "AB", Ordering.AFTER)],
        "a-decided-pair-is-a-query": [("order", "AB"), ("order", "BA")],
        "vector-clocks-decide": [("order", "AC", Ordering.AFTER)],
        "transitive-through-a-decision": [("order", "BA"), ("order", "BC")],
        "the-referee-counts-nothing": [
            ("order", "AB"), ("established", "BA"), ("established", "CD"),
        ],
        "collect-below": [
            ("order", "AB"), ("order", "CD"), ("collect", None),
        ],
    }

    @pytest.mark.parametrize("script", list(SCRIPTS), ids=list(SCRIPTS))
    def test_same_answers_same_counters(self, script):
        from repro.core.oracle import TimelineOracle

        local = TimelineOracle()
        watermark = VectorTimestamp(0, (2, 1), 0)
        with ProcessWeaver(WeaverConfig(num_gatekeepers=2)) as db:
            before = db.metrics.snapshot()
            for kind, pair, *prefer in self.SCRIPTS[script]:
                if kind == "collect":
                    answers = [o.collect_below(watermark)
                               for o in (db.oracle, local)]
                else:
                    a, b = (getattr(self, name) for name in pair)
                    method = {"order": "order",
                              "established": "established_order"}[kind]
                    answers = [getattr(o, method)(a, b, *prefer)
                               for o in (db.oracle, local)]
                assert answers[0] == answers[1]
            after = db.metrics.snapshot()
        moved = {
            name: after[name] - before[name]
            for name in before if name.startswith("oracle.")
        }
        assert moved == local.metrics()


class TestLifecycleLeavesNothingBehind:
    """What a deployment starts, its end stops: ``close()`` removes the
    temp dir with every socket file in it, and a client that dies
    without closing takes its worker processes with it."""

    #: Workers check for a dead client once a second; the oracle, once
    #: it has been idle for a second after they are gone.
    ORPHAN_EXIT_BOUND = 10.0

    @pytest.mark.parametrize("recover", [False, True])
    def test_close_removes_the_temp_dir(self, recover):
        db = ProcessWeaver(WeaverConfig(num_gatekeepers=1, num_shards=2))
        try:
            load_tree(db, n=6)
            assert os.path.exists(os.path.join(db._tmpdir, "peer0.sock"))
            if recover:
                db.kill_shard_worker(1)
                db.recover_shard(1)
        finally:
            db.close()
        assert not os.path.exists(db._tmpdir)

    def test_client_death_ends_every_worker(self):
        import json
        import shutil
        import subprocess
        import sys

        if not os.path.isdir("/proc"):
            pytest.skip("reads process states from /proc")
        script = (
            "import json, sys, time\n"
            "from repro.cluster.process import ProcessWeaver\n"
            "from repro.db import WeaverConfig\n"
            "db = ProcessWeaver(WeaverConfig(num_gatekeepers=1,"
            " num_shards=2))\n"
            "pids = [db._oracle_proc.pid]"
            " + [p.pid for p in db._procs.values()]\n"
            "print(json.dumps([db._tmpdir, pids]), flush=True)\n"
            "time.sleep(600)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        client = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            env=env, text=True,
        )
        tmpdir, pids = None, []
        try:
            tmpdir, pids = json.loads(client.stdout.readline())
            assert len(pids) == 3
            client.send_signal(signal.SIGKILL)
            client.wait(timeout=10)
            deadline = time.monotonic() + self.ORPHAN_EXIT_BOUND
            while time.monotonic() < deadline and any(map(_running, pids)):
                time.sleep(0.1)
            assert [pid for pid in pids if _running(pid)] == []
        finally:
            client.kill()
            client.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            # A killed client cannot remove its own temp dir.
            if tmpdir is not None:
                shutil.rmtree(tmpdir, ignore_errors=True)


def _running(pid: int) -> bool:
    """Alive and not a zombie (an orphan's reaper may be slow to reap)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"
