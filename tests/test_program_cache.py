"""Node-program memoization and change-based invalidation (section 4.6)."""

import pytest

from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.programs.caching import ChangeTracker, ProgramCache


@pytest.fixture
def tracker():
    return ChangeTracker()


@pytest.fixture
def cache(tracker):
    return ProgramCache(tracker, capacity=4)


class TestChangeTracker:
    def test_nothing_written_is_unchanged(self, tracker):
        assert tracker.attempts == 0
        assert tracker.unchanged_since(["v"], 0)

    def test_every_attempt_counts(self, tracker):
        tracker.bump_all(["v"])
        tracker.bump_all([])
        assert tracker.attempts == 2

    def test_bump_all(self, tracker):
        tracker.bump_all(["a", "b"])
        assert not tracker.unchanged_since(["a"], 0)
        assert not tracker.unchanged_since(["b"], 0)
        assert tracker.unchanged_since(["a", "b"], 1)

    def test_unchanged_since(self, tracker):
        tracker.bump_all(["a"])
        since = tracker.attempts
        assert tracker.unchanged_since(["a", "b"], since)
        tracker.bump_all(["b"])
        assert not tracker.unchanged_since(["a", "b"], since)
        assert tracker.unchanged_since(["a"], since)


def put(cache, tracker, key, value, read_set):
    cache.put(key, value, read_set, tracker.attempts)


class TestProgramCache:
    def test_miss_then_hit(self, cache, tracker):
        key = ProgramCache.key("bfs", None, "a", "p")
        assert cache.get(key) is None
        put(cache, tracker, key, "result", ["a", "b"])
        assert cache.get(key) == "result"
        assert cache.hits == 1 and cache.misses == 1

    def test_invalidated_by_read_set_change(self, cache, tracker):
        key = ProgramCache.key("bfs", None, "a", "p")
        put(cache, tracker, key, "result", ["a", "b"])
        tracker.bump_all(["b"])
        assert cache.get(key) is None
        assert cache.invalidations == 1

    def test_unrelated_change_does_not_invalidate(self, cache, tracker):
        key = ProgramCache.key("bfs", None, "a", "p")
        put(cache, tracker, key, "result", ["a", "b"])
        tracker.bump_all(["zzz"])
        assert cache.get(key) == "result"

    def test_an_attempt_before_the_store_but_after_the_stamp_invalidates(
        self, cache, tracker
    ):
        """On the twin a commit can land between a read's stamp and its
        reply: the entry is valid from the stamp's attempt, not from
        when it is stored."""
        key = ProgramCache.key("bfs", None, "a", "p")
        stamped_after = tracker.attempts
        tracker.bump_all(["b"])
        cache.put(key, "result", ["a", "b"], stamped_after)
        assert cache.get(key) is None
        assert cache.invalidations == 1

    def test_lru_eviction(self, cache, tracker):
        for i in range(5):
            put(cache, tracker, ProgramCache.key("p", None, f"v{i}", None),
                i, [f"v{i}"])
        assert len(cache) == 4
        assert cache.get(ProgramCache.key("p", None, "v0", None)) is None

    def test_get_refreshes_lru_position(self, cache, tracker):
        for i in range(4):
            put(cache, tracker, ProgramCache.key("p", None, f"v{i}", None),
                i, [f"v{i}"])
        cache.get(ProgramCache.key("p", None, "v0", None))  # refresh v0
        put(cache, tracker, ProgramCache.key("p", None, "v9", None), 9,
            ["v9"])
        assert cache.get(ProgramCache.key("p", None, "v0", None)) == 0
        assert cache.get(ProgramCache.key("p", None, "v1", None)) is None

    def test_hit_rate(self, cache, tracker):
        key = ProgramCache.key("p", None, "a", None)
        put(cache, tracker, key, 1, ["a"])
        cache.get(key)
        cache.get(ProgramCache.key("p", None, "zzz", None))
        assert cache.hit_rate == pytest.approx(0.5)

    def test_zero_capacity_rejected(self, tracker):
        with pytest.raises(ValueError):
            ProgramCache(tracker, capacity=0)

    def test_clear(self, cache, tracker):
        put(cache, tracker, ProgramCache.key("p", None, "a", None), 1, ["a"])
        cache.clear()
        assert len(cache) == 0


class TestEndToEndCaching:
    @pytest.fixture
    def cached_db(self):
        db = Weaver(
            WeaverConfig(
                num_gatekeepers=2, num_shards=2, enable_program_cache=True
            )
        )
        client = WeaverClient(db)
        with client.transaction() as tx:
            for v in ("a", "b", "c"):
                tx.create_vertex(v)
            tx.create_edge("a", "b", "ab")
            tx.create_edge("b", "c", "bc")
        return db, client

    def test_cached_traverse_skips_reads(self, cached_db):
        db, client = cached_db
        from repro.programs import Bfs, params

        first = db.run_program(Bfs(), "a", params(depth=0), use_cache=True,
                               cache_key="bfs-a")
        reads_after_first = sum(s.stats.vertices_read for s in db.shards)
        second = db.run_program(Bfs(), "a", params(depth=0), use_cache=True,
                                cache_key="bfs-a")
        reads_after_second = sum(s.stats.vertices_read for s in db.shards)
        assert second.results == first.results
        assert reads_after_second == reads_after_first
        assert db.program_cache.hits == 1

    def test_write_to_read_set_invalidates(self, cached_db):
        db, client = cached_db
        from repro.programs import Bfs, params

        db.run_program(Bfs(), "a", params(depth=0), use_cache=True,
                       cache_key="bfs-a")
        client.delete_edge("b", "bc")
        result = db.run_program(Bfs(), "a", params(depth=0), use_cache=True,
                                cache_key="bfs-a")
        assert result.results == ["a", "b"]
        assert db.program_cache.invalidations == 1

    def test_hit_stamps_nothing_and_is_traced(self, cached_db):
        """A hit is looked up before the stamp, yet still counts as a
        client-observed run and closes its trace."""
        db, _ = cached_db
        from repro.programs import Bfs, params

        first = db.run_program(Bfs(), "a", params(depth=0), use_cache=True)
        stamps = len(db.tracer.spans(kind="program.stamp"))
        runs = db.programs_run
        hit = db.run_program(Bfs(), "a", params(depth=0), use_cache=True)
        assert (hit.results, hit.read_set) == (first.results, first.read_set)
        assert len(db.tracer.spans(kind="program.stamp")) == stamps
        assert db.programs_run == runs + 1
        completes = db.tracer.spans(kind="program.complete")
        assert completes[-1].attr("cache_hit") is True
        assert completes[-2].attr("cache_hit") is None

    def test_historical_entries_keyed_by_snapshot(self, cached_db):
        db, client = cached_db
        from repro.programs import Bfs, params

        point = db.checkpoint()
        with client.transaction() as tx:
            tx.create_vertex("d")
            tx.create_edge("a", "d", "ad")

        def bfs(**at):
            return db.run_program(
                Bfs(), "a", params(depth=0), use_cache=True, **at
            ).results

        current = bfs()
        historical = bfs(at=point)
        assert "d" in current
        assert set(historical) == {"a", "b", "c"}
        # Each snapshot serves its own entry; neither cross-serves.
        assert bfs(at=point) == historical
        assert bfs() == current
        assert db.program_cache.hits == 2

    @pytest.mark.parametrize("read_before_recovery", [False, True])
    @pytest.mark.parametrize("deployment", ["direct", "process"])
    def test_write_whose_forward_raised_invalidates(
        self, deployment, read_before_recovery
    ):
        """A commit attempt invalidates what it writes before the
        gatekeeper stamps: a write the store holds but no shard was
        sent refutes a cached result once recovery loads it.  A result
        cached after that attempt but before recovery is dropped by the
        recovery's epoch barrier."""
        from repro.cluster.process import ProcessWeaver
        from repro.programs import Bfs, params

        config = WeaverConfig(
            num_gatekeepers=2, num_shards=2, enable_program_cache=True
        )
        db = Weaver(config) if deployment == "direct" else ProcessWeaver(
            config
        )
        try:
            with WeaverClient(db).transaction() as tx:
                for v in "abc":
                    tx.create_vertex(v)
                tx.create_edge("a", "b", "ab")

            def bfs(**cache):
                return db.run_program(
                    Bfs(), "a", params(depth=0), **cache
                ).results

            assert bfs(use_cache=True) == ["a", "b"]

            def lost(*args):
                raise RuntimeError("forward lost")

            db._enqueue = lost
            tx = db.begin_transaction()
            tx.create_edge("b", "c", "bc")
            with pytest.raises(RuntimeError, match="forward lost"):
                tx.commit()
            del db._enqueue
            if read_before_recovery:
                assert bfs(use_cache=True) == ["a", "b"]
            shard = db._shard_of("b")
            if deployment == "direct":
                db.fail_shard(shard)
            else:
                db.kill_shard_worker(shard)
                db.recover_shard(shard)
            assert bfs(use_cache=True) == ["a", "b", "c"]
            assert bfs() == ["a", "b", "c"]
        finally:
            if deployment == "process":
                db.close()

    @pytest.mark.parametrize("deployment", ["direct", "process"])
    def test_multi_start_frontiers_do_not_share_an_entry(self, deployment):
        """The key covers every (handle, params) pair of a frontier: a
        key of the first handle and ``start``'s params served the
        result from ``[a, b]`` to ``[a, c]``."""
        from repro.cluster.process import ProcessWeaver
        from repro.programs import GetNode

        config = WeaverConfig(
            num_gatekeepers=2, num_shards=2, enable_program_cache=True
        )
        db = Weaver(config) if deployment == "direct" else ProcessWeaver(
            config
        )
        try:
            with WeaverClient(db).transaction() as tx:
                for v in "abc":
                    tx.create_vertex(v)

            def handles(frontier):
                result = db.run_program(GetNode(), frontier, use_cache=True)
                return sorted(node["handle"] for node in result.results)

            assert handles([("a", None), ("b", None)]) == ["a", "b"]
            assert handles([("a", None), ("c", None)]) == ["a", "c"]
            assert handles([("a", None), ("b", None)]) == ["a", "b"]
            assert db.program_cache.hits == 1
        finally:
            if deployment == "process":
                db.close()

    def test_cache_disabled_by_default(self, db):
        assert db.program_cache is None
        # use_cache on a cache-less deployment is a silent no-op.
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
        from repro.programs import GetNode

        result = db.run_program(GetNode(), "a", use_cache=True)
        assert result.value["handle"] == "a"
