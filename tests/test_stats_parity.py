"""Coordination accounting: one client request, one oracle message.

Fig 14's oracle-message counts (and the τ controller that feeds on
them) are only honest if ``OracleStats.messages`` moves by exactly one
per client request — no double-charging a decision as a query, no
per-replica fan-in on the chain.  These tests pin that contract, the
single-vs-replicated parity it implies, the reach-cache eviction
accounting, and the stable metric-name surface of the registry.
"""

import pytest

from repro.core.oracle import (
    EventDependencyGraph,
    Ordering,
    ReplicatedOracle,
    TimelineOracle,
)
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


class TestReplicatedParity:
    def test_client_visible_stats_match_single(self):
        single = drive(TimelineOracle())
        chained = drive(ReplicatedOracle(chain_length=3))
        for field in ("queries", "decisions", "events_created", "messages"):
            assert getattr(chained, field) == getattr(single, field), field

    def test_update_fanout_tracked_separately(self):
        oracle = ReplicatedOracle(chain_length=3)
        drive(oracle)
        # Six potentially-mutating requests (3 creates + 3 order calls —
        # order always walks the chain since it may decide) fan out to
        # all three replicas; the pure query_order read is served by one
        # reader and fans out to none.
        assert oracle.update_messages == 6 * 3
        assert oracle.stats.messages == 7

    def test_parity_survives_head_failure(self):
        oracle = ReplicatedOracle(chain_length=3)
        a, b = ts([1, 0], 0), ts([0, 1], 1)
        oracle.create_event(a)
        oracle.create_event(b)
        oracle.order(a, b)
        oracle.fail_replica(0)
        assert oracle.order(a, b) is Ordering.BEFORE
        # The new head inherited identical state: the re-ask is a query.
        assert oracle.stats.queries == 1
        assert oracle.stats.decisions == 1


class TestReachCacheEviction:
    def test_fractional_eviction_not_full_clear(self):
        graph = EventDependencyGraph()
        graph._REACH_CACHE_LIMIT = 8
        for i in range(20):
            graph._cache_reachable(((i, 0, 0), (0, 1, 1)))
        assert graph.reach_cache_size <= 8
        assert graph.stats.reach_cache_evictions >= 12
        assert graph.stats.reach_cache_clears == 0

    def test_eviction_drops_oldest_quarter(self):
        graph = EventDependencyGraph()
        graph._REACH_CACHE_LIMIT = 8
        for i in range(8):
            graph._cache_reachable(((i, 0, 0), (0, 1, 1)))
        graph._cache_reachable(((99, 0, 0), (0, 1, 1)))
        assert graph.stats.reach_cache_evictions == 2
        assert graph.reach_cache_size == 7  # 8 - 2 evicted + 1 inserted

    def test_gc_counts_a_clear(self):
        oracle = TimelineOracle()
        a, b = ts([1, 0], 0), ts([0, 1], 1)
        oracle.order(a, b)
        oracle.query_order(a, b)  # populates the positive-reach cache
        assert oracle.reach_cache_size > 0
        oracle.collect_below(ts([5, 5], 0))
        assert oracle.reach_cache_size == 0
        assert oracle.stats.reach_cache_clears >= 1


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
    "oracle.reach_cache_clears",
    "oracle.reach_cache_evictions",
    "oracle.reach_cache_hits",
    "oracle.reach_cache_size",
    "oracle.update_messages",
    "ordering.cache_entries",
    "ordering.cache_hits",
    "ordering.cache_misses",
    "ordering.cached",
    "ordering.deadline_fallback",
    "ordering.deadline_fastpath",
    "ordering.heap_compares_saved",
    "ordering.proactive",
    "ordering.reactive",
    "ordering.snapshot_memo_hits",
    "program.batch_rounds",
    "program.dedup_hits",
    "program.executions",
    "program.readiness_fastpath_hits",
    "program.readiness_storms",
    "program.round_messages_saved",
    "program.shard_batches",
    "program.snapshot_reuse_hits",
    "program.snapshots_created",
    "program.vertices_resolved",
    "shard.duplicates_discarded",
    "shard.local_tiebreaks",
    "shard.nops_applied",
    "shard.out_of_order_rejected",
    "shard.pages_in",
    "shard.pages_out",
    "shard.programs_started",
    "shard.transactions_applied",
    "shard.vertices_read",
    "store.aborts",
    "store.commits",
    "store.compaction.background_runs",
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
        # oracle_messages() must read the replicated head, not a replica
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
