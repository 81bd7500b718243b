"""Graph write operations: both execution targets, validity checks."""

import pytest

from repro.core.vclock import VectorClock
from repro.db import operations as ops
from repro.errors import TransactionAborted
from repro.graph.mvgraph import MultiVersionGraph
from repro.store.kvstore import TransactionalStore


@pytest.fixture
def store():
    return TransactionalStore()


@pytest.fixture
def clock():
    return VectorClock(1, 0)


def apply_store(store, *operations):
    tx = store.begin()
    for op in operations:
        op.apply_store(tx)
    tx.commit()


class TestStoreApply:
    def test_create_vertex(self, store):
        apply_store(store, ops.CreateVertex("a"))
        assert store.get("v:a") == {}

    def test_create_duplicate_vertex_aborts(self, store):
        apply_store(store, ops.CreateVertex("a"))
        with pytest.raises(TransactionAborted):
            apply_store(store, ops.CreateVertex("a"))

    def test_delete_vertex(self, store):
        apply_store(store, ops.CreateVertex("a"))
        apply_store(store, ops.DeleteVertex("a"))
        assert not store.exists("v:a")

    def test_delete_deleted_vertex_aborts(self, store):
        # The paper's canonical validity example (section 4.2).
        apply_store(store, ops.CreateVertex("a"))
        apply_store(store, ops.DeleteVertex("a"))
        with pytest.raises(TransactionAborted):
            apply_store(store, ops.DeleteVertex("a"))

    def test_create_edge_requires_both_endpoints(self, store):
        apply_store(store, ops.CreateVertex("a"))
        with pytest.raises(TransactionAborted):
            apply_store(store, ops.CreateEdge("e", "a", "missing"))
        with pytest.raises(TransactionAborted):
            apply_store(store, ops.CreateEdge("e", "missing", "a"))

    def test_create_edge(self, store):
        apply_store(store, ops.CreateVertex("a"), ops.CreateVertex("b"))
        apply_store(store, ops.CreateEdge("e", "a", "b"))
        assert store.get("e:a:e") == {"dst": "b", "props": {}}

    def test_duplicate_edge_aborts(self, store):
        apply_store(store, ops.CreateVertex("a"), ops.CreateVertex("b"))
        apply_store(store, ops.CreateEdge("e", "a", "b"))
        with pytest.raises(TransactionAborted):
            apply_store(store, ops.CreateEdge("e", "a", "b"))

    def test_delete_edge(self, store):
        apply_store(store, ops.CreateVertex("a"), ops.CreateVertex("b"))
        apply_store(store, ops.CreateEdge("e", "a", "b"))
        apply_store(store, ops.DeleteEdge("a", "e"))
        assert not store.exists("e:a:e")

    def test_delete_missing_edge_aborts(self, store):
        apply_store(store, ops.CreateVertex("a"))
        with pytest.raises(TransactionAborted):
            apply_store(store, ops.DeleteEdge("a", "ghost"))

    def test_set_vertex_property(self, store):
        apply_store(store, ops.CreateVertex("a"))
        apply_store(store, ops.SetVertexProperty("a", "k", 1))
        assert store.get("v:a") == {"k": 1}

    def test_set_property_on_missing_vertex_aborts(self, store):
        with pytest.raises(TransactionAborted):
            apply_store(store, ops.SetVertexProperty("ghost", "k", 1))

    def test_delete_vertex_property(self, store):
        apply_store(store, ops.CreateVertex("a"))
        apply_store(store, ops.SetVertexProperty("a", "k", 1))
        apply_store(store, ops.DeleteVertexProperty("a", "k"))
        assert store.get("v:a") == {}

    def test_set_edge_property(self, store):
        apply_store(store, ops.CreateVertex("a"), ops.CreateVertex("b"))
        apply_store(store, ops.CreateEdge("e", "a", "b"))
        apply_store(store, ops.SetEdgeProperty("a", "e", "w", 2))
        assert store.get("e:a:e")["props"] == {"w": 2}

    def test_set_edge_property_missing_edge_aborts(self, store):
        apply_store(store, ops.CreateVertex("a"))
        with pytest.raises(TransactionAborted):
            apply_store(store, ops.SetEdgeProperty("a", "ghost", "w", 2))

    def test_delete_edge_property(self, store):
        apply_store(store, ops.CreateVertex("a"), ops.CreateVertex("b"))
        apply_store(store, ops.CreateEdge("e", "a", "b"))
        apply_store(store, ops.SetEdgeProperty("a", "e", "w", 2))
        apply_store(store, ops.DeleteEdgeProperty("a", "e", "w"))
        assert store.get("e:a:e")["props"] == {}


class TestGraphApply:
    def test_round_trip_all_ops(self, clock):
        graph = MultiVersionGraph()
        sequence = [
            ops.CreateVertex("a"),
            ops.CreateVertex("b"),
            ops.CreateEdge("e", "a", "b"),
            ops.SetVertexProperty("a", "color", "red"),
            ops.SetEdgeProperty("a", "e", "w", 1),
            ops.DeleteEdgeProperty("a", "e", "w"),
            ops.DeleteVertexProperty("a", "color"),
            ops.DeleteEdge("a", "e"),
            ops.DeleteVertex("b"),
        ]
        for op in sequence:
            op.apply_graph(graph, clock.tick())
        view = graph.at(clock.tick())
        assert view.has_vertex("a")
        assert not view.has_vertex("b")
        assert view.vertex("a").out_degree() == 0
        assert view.vertex("a").properties() == {}


class TestTouched:
    def test_touched_is_owner_vertex(self):
        assert ops.CreateEdge("e", "a", "b").touched() == frozenset(["a"])
        assert ops.DeleteEdge("a", "e").touched() == frozenset(["a"])
        assert ops.SetVertexProperty("v", "k", 1).touched() == frozenset(["v"])

    def test_touched_union(self):
        touched = ops.touched_vertices(
            [ops.CreateVertex("a"), ops.CreateEdge("e", "a", "b")]
        )
        assert touched == frozenset(["a"])


class TestRecoveryDecode:
    def test_graph_state_from_store(self, store):
        apply_store(store, ops.CreateVertex("a"), ops.CreateVertex("b"))
        apply_store(store, ops.CreateEdge("e", "a", "b"))
        apply_store(store, ops.SetVertexProperty("a", "k", 1))
        vertices, edges = ops.graph_state_from_store(store.snapshot())
        assert vertices == {"a": {"k": 1}, "b": {}}
        assert edges == {("a", "e"): {"dst": "b", "props": {}}}
