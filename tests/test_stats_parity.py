"""Coordination accounting: one client request, one oracle message.

Fig 14's oracle-message counts (and the τ controller that feeds on
them) are only honest if ``OracleStats.messages`` moves by exactly one
per client request — no double-charging a decision as a query.  These
tests pin that contract and the stable metric-name surface of the
registry.
"""

import pytest

from repro.core.oracle import Ordering, RegionOracleClient, TimelineOracle
from repro.core.vclock import VectorTimestamp
from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.obs import assemble_chain
from repro.sim.clock import MSEC
from repro.workloads.chaos import run_chaos


def ts(clocks, issuer=0, epoch=0):
    return VectorTimestamp(epoch, tuple(clocks), issuer)


def drive(oracle):
    """A fixed request script; returns the client-visible stats."""
    a, b, c = ts([1, 0], 0), ts([0, 1], 1), ts([2, 0], 0)
    oracle.create_event(a)
    oracle.create_event(b)
    oracle.order(a, b)                    # concurrent: one decision
    oracle.order(a, b)                    # established: one query
    oracle.query_order(a, c)              # vc-decided: one query
    oracle.create_event(c)
    oracle.order(b, c, prefer=Ordering.AFTER)  # one more decision
    return oracle.stats


class TestOneRequestOneMessage:
    def test_decision_counts_once(self):
        oracle = TimelineOracle()
        a, b = ts([1, 0], 0), ts([0, 1], 1)
        oracle.order(a, b)
        # The old code charged a decision as a query *and* a decision
        # (messages == 2 for one request) — the Fig 14 double-count bug.
        assert oracle.stats.decisions == 1
        assert oracle.stats.queries == 0
        assert oracle.stats.messages == 1

    def test_reorder_of_established_pair_is_a_query(self):
        oracle = TimelineOracle()
        a, b = ts([1, 0], 0), ts([0, 1], 1)
        oracle.order(a, b)
        assert oracle.order(a, b) is Ordering.BEFORE
        assert oracle.stats.decisions == 1
        assert oracle.stats.queries == 1
        assert oracle.stats.messages == 2

    def test_script_totals(self):
        stats = drive(TimelineOracle())
        assert stats.events_created == 3
        assert stats.decisions == 2
        assert stats.queries == 2
        assert stats.messages == 7

    def test_a_region_client_counts_what_the_oracle_would(self):
        # Fed the same order requests, a region's local answers plus
        # escalations equal the messages a bare oracle counts: the sum
        # the tau controller reads is one per request too.
        a, b, c, d = ts([1, 0], 0), ts([0, 1], 1), ts([2, 0], 0), ts([0, 2], 1)
        script = [(a, b), (b, a), (a, c), (c, d), (d, c), (b, c)]
        bare = TimelineOracle()
        client = RegionOracleClient(TimelineOracle(), 0)
        for x, y in script:
            assert client.order(x, y) is bare.order(x, y)
        assert client.stats.oracle_messages == bare.stats.messages == 6


class TestDecidedPairsAsEdges:
    def test_established_order_counts_nothing(self):
        # a -> b -> c -> d are explicit edges between concurrent stamps,
        # so (a, d) is reachable only through them, by a search.
        oracle = TimelineOracle()
        a, b, c, d = (
            ts([int(i == j) for j in range(4)], i) for i in range(4)
        )
        oracle.order(a, b)
        oracle.order(b, c)
        oracle.order(c, d)
        before = oracle.metrics()
        assert oracle.established_order(a, d) is Ordering.BEFORE
        assert oracle.established_order(d, a) is Ordering.AFTER
        assert oracle.metrics() == before

    def test_gc_keeps_a_decided_pair_an_edge(self):
        # x is decided between a and b; collecting it bridges a -> b,
        # so the re-ask is one counted query and no search.
        oracle = TimelineOracle()
        a, b, x = ts([1, 0, 0], 0), ts([0, 1, 0], 1), ts([0, 0, 1], 2)
        oracle.order(a, x)
        oracle.order(x, b)
        assert oracle.collect_below(ts([0, 0, 5], 2)) == 1
        stats = oracle.stats
        expansions, messages = stats.bfs_expansions, stats.messages
        assert oracle.query_order(b, a) is Ordering.AFTER
        assert stats.bfs_expansions == expansions
        assert stats.messages == messages + 1


# The stable metric-name surface of a direct-mode Weaver: dashboards,
# the CLI, and the bench harness key on these dotted names.  Extending
# the list is fine (update the golden set); renaming or dropping a name
# is a breaking change to `repro stats --json` consumers.
GOLDEN_DIRECT_METRICS = frozenset({
    "gatekeeper.aborts",
    "gatekeeper.announces_received",
    "gatekeeper.announces_sent",
    "gatekeeper.commits",
    "gatekeeper.nops_sent",
    "gatekeeper.timestamps_issued",
    "oracle.bfs_expansions",
    "oracle.bfs_pruned",
    "oracle.decisions",
    "oracle.events",
    "oracle.events_collected",
    "oracle.events_created",
    "oracle.messages",
    "oracle.queries",
    "ordering.deadline_fallback",
    "ordering.deadline_fastpath",
    "ordering.proactive",
    "ordering.reactive",
    "ordering.snapshot_memo_hits",
    "program.batch_rounds",
    "program.dedup_hits",
    "program.executions",
    "program.readiness_fastpath_hits",
    "program.readiness_reuses_across_commits",
    "program.readiness_storms",
    "program.round_messages_saved",
    "program.shard_batches",
    "program.snapshot_reuse_hits",
    "program.snapshots_created",
    "program.vertices_resolved",
    "shard.answers_carried",
    "shard.duplicates_discarded",
    "shard.local_tiebreaks",
    "shard.nops_applied",
    "shard.out_of_order_rejected",
    "shard.pages_in",
    "shard.pages_out",
    "shard.programs_started",
    "shard.transactions_applied",
    "shard.vertices_read",
    "shard.views_built",
    "store.aborts",
    "store.commits",
    "store.compactions",
    "store.page_cache_bytes",
    "store.page_cache_evictions",
    "store.page_cache_hits",
    "store.page_cache_misses",
    "store.records_collected",
    "store.retries",
    "store.tombstones_purged",
    "trace.spans",
    "trace.traces",
})


# The names a `ProcessWeaver` snapshot carries: the direct surface, the
# worker processes' own and the client transport's.
GOLDEN_PROCESS_METRICS = GOLDEN_DIRECT_METRICS | frozenset(
    [f"process.{name}" for name in (
        "recoveries", "stragglers_dropped", "workers",
    )]
    + [f"program.resident.{name}" for name in (
        "entries_processed", "forwards_received", "forwards_sent",
        "hops_forwarded", "hops_received", "peer_reconnects",
        "programs_coordinated", "programs_participated", "round_reports",
        "rounds_executed", "stale_drops",
    )]
    + ["transport.queue_depth.shard0", "transport.queue_depth.shard1"]
    + [f"transport.{side}{name}" for side in ("", "worker.") for name in (
        "batched_messages", "batches_sent", "bytes_received",
        "bytes_sent", "deserialize_seconds", "frames_received",
        "frames_sent", "messages_received", "messages_sent", "requests",
        "requests_pipelined", "serialize_seconds",
    )]
)


class TestMetricSurface:
    @pytest.fixture(scope="class")
    def db(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        client.transact(lambda t: (
            t.create_vertex("a"),
            t.create_vertex("b"),
            t.create_edge("a", "b"),
        ))
        return db

    def test_golden_metric_names(self, db):
        assert set(db.metrics.snapshot()) == GOLDEN_DIRECT_METRICS

    def test_snapshot_matches_hand_count(self, db):
        snap = db.metrics.snapshot()
        assert snap["oracle.messages"] == db.oracle.stats.messages
        assert snap["gatekeeper.commits"] == sum(
            gk.stats.commits for gk in db.gatekeepers
        )
        assert snap["shard.transactions_applied"] == sum(
            s.stats.transactions_applied for s in db.shards
        )

    def test_every_client_commit_traced(self, db):
        commits = [s for s in db.tracer.spans(kind="store.commit")]
        assert len(commits) == sum(gk.stats.commits for gk in db.gatekeepers)


class TestTraceChainUnderChaos:
    """Acceptance: `repro trace <id>` reconstructs the span chain."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos(1, duration=10 * MSEC)

    def test_committed_write_has_full_chain(self, report):
        tracer = report.tracer
        chains = [
            [s.kind for s in assemble_chain(tracer, tid)]
            for tid in tracer.trace_ids()
        ]
        committed = [c for c in chains if "txn.commit" in c]
        assert committed, "no committed write left a trace"
        expected = [
            "client.submit", "gatekeeper.stamp", "store.commit",
            "shard.enqueue", "shard.apply",
        ]
        full = [
            c for c in committed
            if [k for k in c if k in expected] [:len(expected)] == expected
        ]
        assert full, f"no chain in protocol order; saw {committed[:3]}"

    def test_some_trace_reaches_the_oracle(self, report):
        tracer = report.tracer
        assert any(
            any(s.kind == "oracle.decide" for s in assemble_chain(tracer, tid))
            for tid in tracer.trace_ids()
        ), "no trace joined an oracle decision"

    def test_latency_histograms_populated(self, report):
        assert report.tx_latency["count"] == report.committed
        assert report.read_latency["count"] == report.reads_completed
        assert 0 < report.tx_latency["p50"] <= report.tx_latency["p99"]

    def test_tau_controller_feeds_on_head_stats(self, report):
        # oracle_messages() must read the oracle's own stats, not an
        # object that double- or under-counts (the TauController call
        # site regression).
        assert report.metrics["oracle.messages"] > 0


class TestTwinMetricParity:
    def test_sim_exports_the_process_deployments_program_names(self):
        """The simulated twin hosts the same engine, so it exports the
        same ``program.*`` names — and counts into them."""
        from repro.cluster.process import ProcessWeaver
        from repro.db import operations as ops
        from repro.programs import GetNode
        from repro.sim.deployment import SimulatedWeaver

        def program_names(db):
            return {
                name for name in db.metrics.snapshot()
                if name.startswith("program.")
            }

        config = WeaverConfig(num_gatekeepers=2, num_shards=2)
        with ProcessWeaver(config) as db:
            process = program_names(db)
        sw = SimulatedWeaver(config)
        assert program_names(sw) == process
        assert "program.resident.rounds_executed" in process
        sw.submit_transaction([ops.CreateVertex("a")])
        sw.run(2 * MSEC)
        sw.submit_program(GetNode(), "a")
        sw.run_until_quiet()
        snap = sw.metrics.snapshot()
        for name in ("program.executions", "program.shard_batches",
                     "program.resident.programs_coordinated",
                     "program.resident.rounds_executed"):
            assert snap[name] == 1, name


def _three_vertices(db):
    WeaverClient(db).transact(lambda t: (
        t.create_vertex("a"),
        t.create_vertex("b"),
        t.create_edge("a", "b"),
    ))


class TestOneCounterSurface:
    """Each process names its counters once, through its registry's
    collectors; the client reads them from its registry and nowhere
    else."""

    @pytest.fixture
    def process_db(self):
        from repro.cluster.process import ProcessWeaver

        with ProcessWeaver(
            WeaverConfig(num_gatekeepers=2, num_shards=2, announce_every=10)
        ) as db:
            yield db

    @pytest.mark.parametrize("deployment", ["direct", "sim", "process"])
    def test_no_name_comes_from_two_collectors(self, deployment):
        from collections import Counter

        from repro.cluster.process import ProcessWeaver
        from repro.sim.deployment import SimulatedWeaver

        config = WeaverConfig(num_gatekeepers=2, num_shards=2)
        db = {"direct": Weaver, "sim": SimulatedWeaver,
              "process": ProcessWeaver}[deployment](config)
        try:
            emitted = Counter()
            for collector in db.metrics._collectors:
                emitted.update(list(collector()))
            assert [n for n, times in emitted.items() if times > 1] == []
        finally:
            if deployment == "process":
                db.close()

    def test_process_metric_names(self, process_db):
        _three_vertices(process_db)
        assert set(process_db.metrics.snapshot()) == GOLDEN_PROCESS_METRICS

    def test_one_snapshot_asks_the_oracle_once(
        self, process_db, monkeypatch
    ):
        from repro.cluster.worker import OracleProxy

        calls = []
        call = OracleProxy._call

        def spy(self, kind, payload):
            calls.append(kind)
            return call(self, kind, payload)

        monkeypatch.setattr(OracleProxy, "_call", spy)
        process_db.metrics.snapshot()
        assert calls == ["stats"]

    def test_a_snapshot_after_close_serves_the_last_counters(
        self, process_db
    ):
        client = WeaverClient(process_db)
        client.create_vertex("a")
        for i in range(6):
            client.set_property("a", "k", i)
        client.get_node("a")
        process_db.drain()
        last = process_db.metrics.snapshot()
        process_db.close()
        after = process_db.metrics.snapshot()
        kept = [
            name for name in last
            if name.startswith(("program.", "oracle."))
        ]
        assert last["program.executions"] > 0 and last["oracle.events"] > 0
        assert {n: after[n] for n in kept} == {n: last[n] for n in kept}
