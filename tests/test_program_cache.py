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
    def test_version_starts_at_zero(self, tracker):
        assert tracker.version("v") == 0

    def test_bump(self, tracker):
        tracker.bump("v")
        tracker.bump("v")
        assert tracker.version("v") == 2

    def test_bump_all(self, tracker):
        tracker.bump_all(["a", "b"])
        assert tracker.version("a") == 1 and tracker.version("b") == 1

    def test_snapshot_and_unchanged(self, tracker):
        tracker.bump("a")
        observed = tracker.snapshot(["a", "b"])
        assert tracker.unchanged(observed)
        tracker.bump("b")
        assert not tracker.unchanged(observed)


class TestProgramCache:
    def test_miss_then_hit(self, cache):
        key = ProgramCache.key("bfs", None, "a", "p")
        assert cache.get(key) is None
        cache.put(key, "result", ["a", "b"])
        assert cache.get(key) == "result"
        assert cache.hits == 1 and cache.misses == 1

    def test_invalidated_by_read_set_change(self, cache, tracker):
        key = ProgramCache.key("bfs", None, "a", "p")
        cache.put(key, "result", ["a", "b"])
        tracker.bump("b")
        assert cache.get(key) is None
        assert cache.invalidations == 1

    def test_unrelated_change_does_not_invalidate(self, cache, tracker):
        key = ProgramCache.key("bfs", None, "a", "p")
        cache.put(key, "result", ["a", "b"])
        tracker.bump("zzz")
        assert cache.get(key) == "result"

    def test_lru_eviction(self, cache):
        for i in range(5):
            cache.put(ProgramCache.key("p", None, f"v{i}", None), i, [f"v{i}"])
        assert len(cache) == 4
        assert cache.get(ProgramCache.key("p", None, "v0", None)) is None

    def test_get_refreshes_lru_position(self, cache):
        for i in range(4):
            cache.put(ProgramCache.key("p", None, f"v{i}", None), i, [f"v{i}"])
        cache.get(ProgramCache.key("p", None, "v0", None))  # refresh v0
        cache.put(ProgramCache.key("p", None, "v9", None), 9, ["v9"])
        assert cache.get(ProgramCache.key("p", None, "v0", None)) == 0
        assert cache.get(ProgramCache.key("p", None, "v1", None)) is None

    def test_hit_rate(self, cache):
        key = ProgramCache.key("p", None, "a", None)
        cache.put(key, 1, ["a"])
        cache.get(key)
        cache.get(ProgramCache.key("p", None, "zzz", None))
        assert cache.hit_rate == pytest.approx(0.5)

    def test_zero_capacity_rejected(self, tracker):
        with pytest.raises(ValueError):
            ProgramCache(tracker, capacity=0)

    def test_clear(self, cache):
        cache.put(ProgramCache.key("p", None, "a", None), 1, ["a"])
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

    def test_cache_disabled_by_default(self, db):
        assert db.program_cache is None
        # use_cache on a cache-less deployment is a silent no-op.
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
        from repro.programs import GetNode

        result = db.run_program(GetNode(), "a", use_cache=True)
        assert result.value["handle"] == "a"
