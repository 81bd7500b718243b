"""ProcessWeaver end to end: the real-transport deployment must behave
exactly like the in-process one.

Three claims, in rising order of ambition: (1) the same operations
produce the same program results as the direct :class:`Weaver`; (2) a
transaction's trace chain — client submit through cross-process shard
apply — has the same shape in both deployments, i.e. trace ids survive
the wire (the spans literally cross an OS process boundary and come
back); (3) a Zipf-contended workload survives a SIGKILLed shard worker
mid-run with a recovery, zero strict-serializability violations, and a
clean history digest.
"""

import random

import pytest

from repro.cluster.process import ProcessWeaver
from repro.db import Weaver, WeaverConfig
from repro.obs import assemble_chain
from repro.verify.history import History, HistoryChecker, decided_order
from repro.verify.online import OnlineChecker
from repro.programs.library import (
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

    @pytest.mark.parametrize("partitioner", ["round_robin", "hash", "ldg"])
    def test_same_script_same_outcome(self, partitioner):
        def config():
            return WeaverConfig(
                num_shards=3, num_gatekeepers=2, partitioner=partitioner
            )

        direct = self.script(Weaver(config()))
        with ProcessWeaver(config()) as db:
            process = self.script(db)
        assert process == direct
        assert direct["gc_keys"] == [
            "graph", "oracle", "ordering_cache", "store",
        ]
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
            db._send_nops = lambda: None        # client side only
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
