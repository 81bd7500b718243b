"""The streaming referee must agree with the offline one, bit for bit.

Four claims: (1) on every chaos seed the online checker reaches the
same verdict and the same digest as the offline ``HistoryChecker`` fed
from the same span stream; (2) both are invariant under span delivery
order — a shuffled stream produces identical digests and verdicts,
because every record carries its own order key; (3) watermark
settlement prunes the retained window down to floors and frontiers
without changing the verdict; (4) a chunked soak run (Zipf + crashes +
live GC) keeps the window flat while the history grows without bound —
the memory-bound property that makes an always-on referee possible.
"""

import random

import pytest

from repro.core.oracle import TimelineOracle
from repro.core.vclock import Ordering, VectorClock
from repro.obs.trace import Span
from repro.sim.clock import MSEC
from repro.verify.history import History, HistoryChecker, decided_order
from repro.verify.online import OnlineChecker
from repro.workloads.chaos import run_chaos, run_soak

HORIZON = 30 * MSEC
SEEDS = (1, 2, 3)

_cache = {}


def chaos(seed):
    if seed not in _cache:
        _cache[seed] = run_chaos(seed, duration=HORIZON, online=True)
    return _cache[seed]


def make_span(kind, at=0.0, **attrs):
    return Span(
        trace_id=None, kind=kind, at=at, node="synth", seq=0,
        attrs=tuple(attrs.items()),
    )


class SynthRun:
    """A randomly generated small history, clean by construction.

    Two issuers tick (and occasionally exchange) vector clocks; commits
    carry store versions in issue order, with the oracle deciding each
    consecutive concurrent pair in the same order (what the real
    deployments do); both shards apply every commit in store order; and
    reads run after a full clock exchange, observing the newest write —
    so every check passes, under any delivery order of the spans.
    """

    def __init__(self, seed, commits=14, reads=4, vertices=4):
        rng = random.Random(seed)
        self.oracle = TimelineOracle()
        self.compare = decided_order(self.oracle)
        self.clocks = [VectorClock(2, 0), VectorClock(2, 1)]
        self.spans = []
        names = [f"x{i}" for i in range(vertices)]
        t = 0.0
        version = 0
        latest = {}
        issued = []
        for tag in range(commits):
            issuer = rng.randrange(2)
            if rng.random() < 0.4:
                self.clocks[issuer].observe(
                    self.clocks[1 - issuer].announce()
                )
            ts = self.clocks[issuer].tick()
            if issued:
                prev = issued[-1]
                if prev.compare(ts) is Ordering.CONCURRENT:
                    self.oracle.assign_order(prev, ts)
            issued.append(ts)
            targets = sorted(rng.sample(names, rng.choice((1, 1, 2))))
            version += 1
            submitted, t = t, t + 1.0
            acked, t = t, t + 1.0
            self.spans.append(make_span(
                "store.commit", at=acked, ts=ts, gk=issuer,
                commit_seq=version,
            ))
            self.spans.append(make_span(
                "txn.commit", at=acked, tag=tag, ts=ts,
                writes=tuple((v, tag) for v in targets),
                submitted_at=submitted,
            ))
            for vertex in targets:
                latest[vertex] = tag
        for shard in (0, 1):
            for i, ts in enumerate(issued, start=1):
                self.spans.append(make_span(
                    "shard.apply", at=t, ts=ts, shard=shard,
                    apply_seq=i, epoch=0,
                ))
        for i in (0, 1):
            self.clocks[i].observe(self.clocks[1 - i].announce())
        for q in range(reads):
            ts = self.clocks[rng.randrange(2)].tick()
            vertex = rng.choice(names)
            submitted, t = t, t + 1.0
            done, t = t, t + 1.0
            self.spans.append(make_span(
                "program.read", at=done, query_id=1000 + q, ts=ts,
                reads=((vertex, latest.get(vertex)),),
                submitted_at=submitted,
            ))

    def watermark(self):
        """A stamp dominating everything issued so far."""
        self.clocks[0].observe(self.clocks[1].announce())
        return self.clocks[0].tick()


def feed(spans, compare):
    history = History()
    online = OnlineChecker(compare)
    for span in spans:
        history.consume(span)
        online.consume(span)
    return history, online


class TestDifferentialOnChaosSeeds:
    """Satellite: every chaos seed through both checkers."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_verdict(self, seed):
        report = chaos(seed)
        offline_kinds = {v.kind for v in report.violations}
        online_kinds = {v.kind for v in report.online_violations}
        assert online_kinds == offline_kinds
        assert report.violations == []
        assert report.online_violations == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_digest(self, seed):
        report = chaos(seed)
        assert report.online_digest == report.digest
        assert len(report.online_digest) == 64

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_record_counts(self, seed):
        report = chaos(seed)
        stats = report.online.stats
        assert stats.commits == len(report.history.commits)
        assert stats.reads == len(report.history.reads)
        assert stats.applies == sum(
            len(seq) for seq in report.history.applies.values()
        )

    def test_checker_metrics_exported(self):
        report = chaos(SEEDS[0])
        assert report.metrics["checker.commits"] == report.committed
        assert "checker.window.total" in report.metrics
        assert "checker.window.peak" in report.metrics


class TestPermutationInvariance:
    """Satellite: permuted span delivery must not change the verdict."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories_clean_under_any_order(self, seed):
        run = SynthRun(seed)
        history, online = feed(run.spans, run.compare)
        base_digest = history.digest()
        assert online.digest() == base_digest
        assert online.finalize() == []
        assert HistoryChecker(history, run.compare).check() == []

        rng = random.Random(seed * 977 + 13)
        for _ in range(3):
            shuffled = list(run.spans)
            rng.shuffle(shuffled)
            history2, online2 = feed(shuffled, run.compare)
            assert history2.digest() == base_digest
            assert online2.digest() == base_digest
            assert online2.finalize() == []
            assert HistoryChecker(history2, run.compare).check() == []

    def test_prefix_digest_parity_at_every_step(self):
        # The soak invariant, at its finest grain: after *every* span,
        # online and offline digests agree.
        run = SynthRun(99)
        history = History()
        online = OnlineChecker(run.compare)
        for span in run.spans:
            history.consume(span)
            online.consume(span)
            assert online.digest() == history.digest()


class TestWatermarkSettlement:
    def test_watermark_prunes_without_changing_verdict(self):
        run = SynthRun(7, commits=20, reads=3)
        online = OnlineChecker(run.compare)
        for span in run.spans:
            online.consume(span)
        before = online.window_size()
        digest_before = online.digest()
        online.advance_watermark(run.watermark())
        after = online.window_size()
        assert after < before
        assert online.stats.pruned > 0
        assert online.stats.window_pending == 0  # everything settled
        assert online.digest() == digest_before  # pruning is check-state only
        assert online.finalize() == []

    def test_floors_survive_pruning_for_later_reads(self):
        # A read settling after the watermark pruned its observed
        # write's window must still resolve the floor (no phantom).
        run = SynthRun(11, commits=10, reads=0)
        online = OnlineChecker(run.compare)
        for span in run.spans:
            online.consume(span)
        online.advance_watermark(run.watermark())
        latest = {}
        for span in run.spans:
            if span.kind == "txn.commit":
                for vertex, _value in span.attr("writes"):
                    latest[vertex] = span.attr("tag")
        vertex, tag = next(iter(latest.items()))
        ts = run.clocks[0].tick()
        online.consume(make_span(
            "program.read", at=1000.0, query_id=5000, ts=ts,
            reads=((vertex, tag),), submitted_at=999.0,
        ))
        assert online.finalize() == []


    def test_direct_weaver_gc_settles_an_attached_checker(self):
        # The shared collect_garbage emits gc.watermark after its drain
        # and before any collect_below on every deployment, so a checker
        # attached to a direct Weaver settles and prunes at GC with no
        # manual advance_watermark.
        from repro.db import Weaver, WeaverConfig
        from repro.programs.library import GetNode
        from repro.verify.history import decided_order

        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        online = OnlineChecker(decided_order(db.oracle))
        online.attach(db.tracer)
        order = []
        db.tracer.add_sink(lambda span: order.append(span.kind))
        tx = db.begin_transaction()
        tx.create_vertex("a")
        tx.commit()
        for tag in range(8):
            tx = db.begin_transaction()
            tx.set_property("a", "w", tag)
            ts = tx.commit()
            db.tracer.emit(
                tx.trace_id, "txn.commit", node="client", at=float(tag),
                tag=tag, ts=ts, writes=(("a", tag),),
                submitted_at=float(tag) - 0.5,
            )
        result = db.run_program(GetNode(), "a")
        db.tracer.emit(
            db.tracer.next_trace_id(), "program.read", node="client",
            query_id=900, at=9.0, ts=result.timestamp,
            reads=(("a", result.value["properties"]["w"]),),
            submitted_at=8.5,
        )
        assert online.watermark is None
        db.collect_garbage()
        assert online.watermark is not None
        assert online.stats.window_pending == 0
        assert online.stats.pruned > 0
        assert online.finalize() == []
        # Announced after the drain's applies, exactly once.
        assert order.count("gc.watermark") == 1
        assert order.index("gc.watermark") > max(
            i for i, kind in enumerate(order) if kind == "shard.apply"
        )


class TestSoakMemoryBound:
    """Satellite: retained window stays flat while the history grows."""

    def test_sim_soak_window_flat_after_watermark(self):
        report = run_soak(5, chunks=9)
        assert report.ok, (
            report.online_violations, report.offline_violations,
            report.parity_failures,
        )
        assert report.watermarks > 0
        assert report.pruned > 0
        # The history kept growing...
        assert report.committed_samples[-1] >= 2 * report.committed_samples[1]
        # ...while the retained window did not.
        early = max(report.window_samples[:3])
        late = max(report.window_samples[-3:])
        assert late <= 2 * early
        assert report.window_final <= report.window_peak
        # Gauges are live in the deployment's registry.
        assert "checker.window.total" in report.metrics
        assert "checker.window.peak" in report.metrics
        assert report.metrics["checker.watermarks"] == report.watermarks

    def test_sim_soak_parity_on_every_chunk(self):
        report = run_soak(6, chunks=6)
        assert report.parity_checks == report.chunks + 1
        assert report.parity_failures == 0
        assert report.digest == report.offline_digest

    def test_process_soak_smoke(self):
        report = run_soak(3, transport="process", chunks=4)
        assert report.ok, (
            report.online_violations, report.offline_violations,
            report.parity_failures,
        )
        assert report.recoveries == 1
        assert report.watermarks >= report.chunks  # one GC per chunk
        assert report.parity_failures == 0
        assert report.window_final <= report.window_peak
