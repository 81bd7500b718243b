"""Client-side transactions: the weaver_tx block."""

import pytest

from repro.errors import (
    NoSuchEdge,
    NoSuchVertex,
    TransactionAborted,
    TransactionError,
)


class TestBasics:
    def test_commit_returns_timestamp(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        ts = tx.commit()
        assert ts is not None
        assert tx.timestamp == ts

    def test_generated_handles_unique(self, db):
        tx = db.begin_transaction()
        handles = {tx.create_vertex() for _ in range(10)}
        assert len(handles) == 10
        tx.commit()

    def test_create_node_alias(self, db):
        tx = db.begin_transaction()
        handle = tx.create_node("n")
        assert handle == "n"
        tx.commit()

    def test_created_vertices_follow_the_create_operations(self, db):
        tx = db.begin_transaction()
        first = tx.create_vertex()
        tx.create_node("n")
        tx.set_property("n", "k", 1)
        tx.create_edge(first, "n")
        assert tx.created_vertices == [first, "n"]
        tx.commit()
        assert tx.created_vertices == [first, "n"]

    def test_len_counts_operations(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        tx.create_vertex("b")
        tx.create_edge("a", "b")
        assert len(tx) == 3
        tx.commit()

    def test_touched_vertices(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        tx.create_vertex("b")
        tx.create_edge("a", "b", "e")
        assert tx.touched_vertices == frozenset(["a", "b"])
        tx.commit()


class TestReadYourWrites:
    def test_created_vertex_readable_in_tx(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        assert tx.vertex_exists("a")
        assert tx.get_vertex("a") == {}
        tx.abort()

    def test_property_readable_in_tx(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        tx.set_property("a", "k", 5)
        assert tx.get_vertex("a") == {"k": 5}
        tx.abort()

    def test_edge_readable_in_tx(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        tx.create_vertex("b")
        tx.create_edge("a", "b", "e")
        tx.set_edge_property("a", "e", "w", 1)
        assert tx.get_edge("a", "e") == {"dst": "b", "props": {"w": 1}}
        tx.abort()

    def test_get_missing_vertex_raises(self, db):
        tx = db.begin_transaction()
        with pytest.raises(NoSuchVertex):
            tx.get_vertex("ghost")
        tx.abort()

    def test_get_missing_edge_raises(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        with pytest.raises(NoSuchEdge):
            tx.get_edge("a", "ghost")
        tx.abort()


class TestValidity:
    def test_delete_missing_vertex_aborts_immediately(self, db):
        tx = db.begin_transaction()
        with pytest.raises(TransactionAborted):
            tx.delete_vertex("ghost")

    def test_double_create_in_tx_aborts(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        with pytest.raises(TransactionAborted):
            tx.create_vertex("a")

    def test_edge_to_missing_destination_aborts(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        with pytest.raises(TransactionAborted):
            tx.create_edge("a", "missing")


class TestLifecycle:
    def test_commit_twice_raises(self, db):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        tx.commit()
        with pytest.raises(TransactionError):
            tx.commit()

    def test_ops_after_commit_raise(self, db):
        tx = db.begin_transaction()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.create_vertex("x")

    def test_abort_discards_writes(self, db, client):
        tx = db.begin_transaction()
        tx.create_vertex("a")
        tx.abort()
        tx2 = db.begin_transaction()
        assert not tx2.vertex_exists("a")
        tx2.abort()

    def test_context_manager_commits_on_success(self, db):
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
        check = db.begin_transaction()
        assert check.vertex_exists("a")
        check.abort()

    def test_context_manager_aborts_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.begin_transaction() as tx:
                tx.create_vertex("a")
                raise RuntimeError("boom")
        check = db.begin_transaction()
        assert not check.vertex_exists("a")
        check.abort()

    def test_is_open(self, db):
        tx = db.begin_transaction()
        assert tx.is_open
        tx.commit()
        assert not tx.is_open


class TestConflicts:
    def test_interleaved_same_vertex_writes_conflict(self, db):
        with db.begin_transaction() as setup:
            setup.create_vertex("a")
        tx1 = db.begin_transaction(gatekeeper=0)
        tx2 = db.begin_transaction(gatekeeper=1)
        tx1.set_property("a", "k", 1)
        tx2.set_property("a", "k", 2)
        tx1.commit()
        with pytest.raises(TransactionAborted):
            tx2.commit()

    def test_disjoint_transactions_both_commit(self, db):
        with db.begin_transaction() as setup:
            setup.create_vertex("a")
            setup.create_vertex("b")
        tx1 = db.begin_transaction(gatekeeper=0)
        tx2 = db.begin_transaction(gatekeeper=1)
        tx1.set_property("a", "k", 1)
        tx2.set_property("b", "k", 2)
        tx1.commit()
        tx2.commit()

    def test_paper_fig2_photo_post(self, db, client):
        """The paper's Fig 2: post a photo and set ACLs atomically."""
        with db.begin_transaction() as setup:
            setup.create_vertex("user")
            for i in range(3):
                setup.create_vertex(f"friend{i}")
        with db.begin_transaction() as tx:
            photo = tx.create_node()
            own = tx.create_edge("user", photo)
            tx.assign_property(own, "user", "OWNS")
            for i in range(2):
                acl = tx.create_edge(photo, f"friend{i}")
                tx.assign_property(acl, photo, "VISIBLE")
        edges = client.get_edges(photo)
        assert len(edges) == 2
        assert all(e["properties"].get("VISIBLE") for e in edges)
