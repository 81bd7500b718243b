"""One referee, with and without watermarks, against a reference.

Five claims: (1) on every chaos seed the referee's end-of-run verdict
equals the brute-force reference's (``tests/reference_checker.py``) over
the same records; (2) both are invariant under span delivery order — a
shuffled stream produces identical digests and verdicts, because every
record carries its own order key; (3) on random histories with injected
violations the referee and the reference agree on every (rule, subject)
pair, not just on the kinds; (4) a referee that is handed watermarks
digests identically, on every prefix, to one of the same class that is
handed none — settlement, pruning and the evidence cache are check
state only — and reaches the same verdict; (5) a chunked soak run
(Zipf + crashes + live GC) keeps the window flat while the history
grows without bound — the memory-bound property that makes an always-on
referee possible.
"""

import random

import pytest

from repro.core.oracle import TimelineOracle
from repro.core.vclock import Ordering, VectorClock
from repro.obs.trace import Span
from repro.sim.clock import MSEC
from repro.verify.history import History, HistoryChecker, decided_order
from repro.verify.online import OnlineChecker
from repro.workloads import chaos as chaos_module
from repro.workloads.chaos import run_chaos, run_soak

from .reference_checker import reference_check, subjects

HORIZON = 30 * MSEC
SEEDS = (1, 2, 3)

_cache = {}


def chaos(seed):
    """One chaos run, plus the decided-order relation it was checked
    against (the report does not carry the oracle)."""
    if seed not in _cache:
        captured = []
        real = chaos_module.decided_order

        def capture(oracle):
            captured.append(real(oracle))
            return captured[-1]

        chaos_module.decided_order = capture
        try:
            report = run_chaos(seed, duration=HORIZON)
        finally:
            chaos_module.decided_order = real
        _cache[seed] = (report, captured[-1])
    return _cache[seed]


def make_span(kind, at=0.0, **attrs):
    return Span(
        trace_id=None, kind=kind, at=at, node="synth", seq=0,
        attrs=tuple(attrs.items()),
    )


def respan(span, at=None, **changes):
    """``span`` with some attributes (and optionally ``at``) replaced."""
    attrs = span.attrs_dict()
    attrs.update(changes)
    return make_span(span.kind, span.at if at is None else at, **attrs)


class SynthRun:
    """A randomly generated small history, clean by construction.

    Two issuers tick (and occasionally exchange) vector clocks; commits
    carry store versions in issue order, with the oracle deciding each
    consecutive concurrent pair in the same order (what the real
    deployments do); both shards apply every commit in store order; and
    reads run after a full clock exchange, observing the newest write —
    so every check passes, under any delivery order of the spans.  With
    ``gc_every``, a ``gc.watermark`` span dominating everything issued
    so far follows every that-many commits.
    """

    def __init__(self, seed, commits=14, reads=4, vertices=4, gc_every=0):
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
            if gc_every and tag % gc_every == gc_every - 1:
                self.spans.append(
                    make_span("gc.watermark", at=t, ts=self.watermark())
                )
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
    """A plain History and the referee over the same stream."""
    history = History()
    referee = OnlineChecker(compare)
    for span in spans:
        history.consume(span)
        referee.consume(span)
    return history, referee


class TestDifferentialOnChaosSeeds:
    """Satellite: every chaos seed through the referee and the reference."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_verdict(self, seed):
        report, compare = chaos(seed)
        reference = reference_check(report.history, compare)
        assert subjects(report.violations) == subjects(reference)
        assert report.violations == []
        assert reference == []
        assert report.committed == len(report.history.commits) > 0
        assert len(report.digest) == 64


class TestPermutationInvariance:
    """Satellite: permuted span delivery must not change the verdict."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories_clean_under_any_order(self, seed):
        run = SynthRun(seed)
        history, referee = feed(run.spans, run.compare)
        base_digest = history.digest()
        assert referee.digest() == base_digest
        assert referee.finalize() == []
        assert HistoryChecker(history, run.compare).check() == []
        assert reference_check(history, run.compare) == []

        rng = random.Random(seed * 977 + 13)
        for _ in range(3):
            shuffled = list(run.spans)
            rng.shuffle(shuffled)
            history2, referee2 = feed(shuffled, run.compare)
            assert history2.digest() == base_digest
            assert referee2.digest() == base_digest
            assert referee2.finalize() == []
            assert HistoryChecker(history2, run.compare).check() == []
            assert reference_check(history2, run.compare) == []


def mutate(run, rng):
    """Break a clean SynthRun in 1-3 random ways; returns the spans.

    Only records are edited (store versions, apply positions, observed
    tags, stamps, wall-clock times) — the decided order stays the
    transitive relation the run built, which the referee's apply
    frontier is entitled to assume.
    """
    spans = list(run.spans)

    def where(kind):
        return [i for i, s in enumerate(spans) if s.kind == kind]

    def swap_attr(kind, attr, same=None):
        i, j = rng.sample(where(kind), 2)
        if same and spans[i].attr(same) != spans[j].attr(same):
            return
        a, b = spans[i].attr(attr), spans[j].attr(attr)
        spans[i] = respan(spans[i], **{attr: b})
        spans[j] = respan(spans[j], **{attr: a})

    commits = [spans[i] for i in where("txn.commit")]
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(7)
        if op == 0:  # the store serialized two commits the other way
            swap_attr("store.commit", "commit_seq")
        elif op == 1:  # a shard applied two transactions the other way
            swap_attr("shard.apply", "apply_seq", same="shard")
        elif op == 2:  # a read observed something else
            i = rng.choice(where("program.read"))
            (vertex, _tag), = spans[i].attr("reads")
            tag = rng.choice([None, 9999, rng.choice(commits).attr("tag")])
            spans[i] = respan(spans[i], reads=((vertex, tag),))
        elif op == 3:  # a read ran at some commit's (early) stamp
            i = rng.choice(where("program.read"))
            spans[i] = respan(spans[i], ts=rng.choice(commits).attr("ts"))
        elif op == 4:  # a commit happened at another wall-clock time
            i = rng.choice(where("txn.commit"))
            t = rng.choice([-50.0, 500.0])
            spans[i] = respan(spans[i], at=t + 1.0, submitted_at=t)
        elif op == 5:  # a read was submitted at another wall-clock time
            i = rng.choice(where("program.read"))
            t = rng.choice([-50.0, 500.0])
            spans[i] = respan(spans[i], at=t + 1.0, submitted_at=t)
        else:  # two transactions share one stamp
            i = rng.choice(where("txn.commit"))
            spans[i] = respan(spans[i], ts=rng.choice(commits).attr("ts"))
    return spans


class TestRandomHistoriesAgainstReference:
    """Satellite: seeded random histories, broken at random; the referee
    and the reference must name the same (rule, subject) pairs."""

    @pytest.mark.parametrize("seed", range(60))
    def test_same_rule_and_subject_pairs(self, seed):
        rng = random.Random(seed * 7919 + 1)
        run = SynthRun(seed, commits=16, reads=6, vertices=3)
        spans = mutate(run, rng)
        for _ in range(2):
            history, referee = feed(spans, run.compare)
            found = subjects(referee.finalize())
            assert found == subjects(reference_check(history, run.compare))
            assert found == subjects(
                HistoryChecker(history, run.compare).check()
            )
            rng.shuffle(spans)

    def test_the_mutations_reach_every_rule(self):
        # The property above is only as good as its generator: across
        # the seeds, every one of the eight rules must have fired.
        kinds = set()
        for seed in range(60):
            run = SynthRun(seed, commits=16, reads=6, vertices=3)
            spans = mutate(run, random.Random(seed * 7919 + 1))
            history, _referee = feed(spans, run.compare)
            kinds |= {v.kind for v in reference_check(history, run.compare)}
        assert kinds == {
            "duplicate-stamp", "commit-order", "apply-order",
            "phantom-read", "future-read", "stale-read",
            "real-time-write", "real-time-read",
        }


class TestWatermarksNeverChangeTheDigest:
    """What the soak harness's offline twin used to guard: two instances
    of the one class, one given the watermarks and one not."""

    @pytest.mark.parametrize("seed", (99, 100, 101))
    def test_prefix_digest_parity_at_every_step(self, seed):
        run = SynthRun(seed, commits=24, reads=4, gc_every=5)
        pruned = OnlineChecker(run.compare)
        unpruned = OnlineChecker(run.compare)
        for span in run.spans:
            pruned.consume(span)
            if span.kind != "gc.watermark":
                unpruned.consume(span)
            assert pruned.digest() == unpruned.digest()
        assert pruned.stats.watermarks == 4
        assert pruned.stats.pruned > 0
        assert unpruned.stats.watermarks == unpruned.stats.pruned == 0
        assert unpruned.window_size() > pruned.window_size()
        assert pruned.finalize() == unpruned.finalize() == []

    def test_a_plain_history_is_the_unpruned_twin(self):
        # History never forwards a watermark: same digest as a referee
        # that got every one of them.
        run = SynthRun(7, commits=20, reads=3, gc_every=4)
        history, referee = feed(run.spans, run.compare)
        assert referee.stats.pruned > 0
        assert history.digest() == referee.digest()
        assert len(history.commits) == 20  # retained, not settled away


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
        assert online.stats.watermarks == 0
        db.collect_garbage()
        assert online.stats.watermarks == 1
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
        assert report.ok, report.violations
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
        assert report.metrics["checker.commits"] == report.committed
        # "Always on" has a price tag, measured around the sink.
        assert report.referee_events == report.metrics["checker.events"]
        assert 0 < report.referee_seconds < report.wall_seconds

    def test_sim_soak_parity_on_every_prefix(self, soak_twin):
        # An unpruned twin of the soak's referee (see conftest): equal
        # digest after every span, and a clean end-of-run verdict of its
        # own once the run is over.
        report = run_soak(6, chunks=6)
        assert report.ok, report.violations
        assert soak_twin["withheld"] == report.watermarks > 0
        assert soak_twin["prefixes"] > report.committed
        assert soak_twin["twin"].digest() == report.digest
        assert soak_twin["twin"].finalize() == []

    def test_process_soak_smoke(self, soak_twin):
        report = run_soak(3, transport="process", chunks=4)
        assert report.ok, report.violations
        assert report.recoveries == 1
        assert report.watermarks >= report.chunks  # one GC per chunk
        assert soak_twin["twin"].digest() == report.digest
        assert soak_twin["twin"].finalize() == []
        assert report.window_final <= report.window_peak
