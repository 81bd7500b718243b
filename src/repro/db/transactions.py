"""Client-side transactions: the ``weaver_tx`` block of section 2.2.

A :class:`Transaction` buffers graph write operations and applies each one
immediately to a private backing-store transaction, which provides
read-your-writes, early validity errors (deleting a deleted vertex aborts
now, not at commit), and the OCC read set used for validation.  At commit
the owning gatekeeper stamps the transaction, checks last-update
timestamp monotonicity, and atomically commits to the backing store; the
database then forwards the operation list to the involved shards.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional

from ..core.vclock import VectorTimestamp
from ..errors import NoSuchEdge, NoSuchVertex, TransactionError
from ..store.kvstore import StoreTransaction
from . import operations as ops
from .operations import Operation


class Transaction:
    """One ACID read-write transaction against Weaver."""

    def __init__(self, db: "weaver_database", gatekeeper_index: int):
        self._db = db
        self.gatekeeper_index = gatekeeper_index
        self.store_tx: StoreTransaction = db.store.begin()
        self.operations: List[Operation] = []
        self._state = "open"
        self.timestamp: Optional[VectorTimestamp] = None
        # Observability id assigned by the database at begin; carried to
        # the gatekeeper and the shards so every hop's spans join up.
        self.trace_id: Optional[int] = None

    # -- lifecycle ------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self._state == "open"

    def _check_open(self) -> None:
        if self._state != "open":
            raise TransactionError(f"transaction is {self._state}")

    def commit(self) -> VectorTimestamp:
        """Commit; returns the refinable timestamp assigned.

        Raises :class:`~repro.errors.TransactionAborted` on conflict, in
        which case the client should retry with a fresh transaction (see
        :meth:`WeaverClient.transact`).
        """
        self._check_open()
        try:
            ts = self._db._commit_transaction(self)
        except Exception:
            self._state = "aborted"
            raise
        self._state = "committed"
        self.timestamp = ts
        return ts

    def abort(self) -> None:
        self._check_open()
        if self.store_tx.is_open:
            self.store_tx.abort()
        self._state = "aborted"

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._state == "open":
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    # -- graph writes ------------------------------------------------------

    def record(self, operation: Operation) -> None:
        """Buffer one operation, validating it against the store now."""
        self._check_open()
        # Applying immediately gives early validity errors and makes the
        # operation visible to this transaction's own later reads.
        operation.apply_store(self.store_tx)
        self.operations.append(operation)

    def create_vertex(self, handle: Optional[str] = None) -> str:
        """Create a vertex; generates a handle when none is given."""
        if handle is None:
            handle = self._db.new_handle("v")
        self.record(ops.CreateVertex(handle))
        return handle

    # The paper's API calls vertices "nodes"; keep both spellings.
    create_node = create_vertex

    def delete_vertex(self, handle: str) -> None:
        self.record(ops.DeleteVertex(handle))

    def create_edge(
        self, src: str, dst: str, handle: Optional[str] = None
    ) -> str:
        if handle is None:
            handle = self._db.new_handle("e")
        self.record(ops.CreateEdge(handle, src, dst))
        return handle

    def delete_edge(self, src: str, handle: str) -> None:
        self.record(ops.DeleteEdge(src, handle))

    def set_property(self, vertex: str, key: str, value: Any) -> None:
        self.record(ops.SetVertexProperty(vertex, key, value))

    def delete_property(self, vertex: str, key: str) -> None:
        self.record(ops.DeleteVertexProperty(vertex, key))

    def set_edge_property(
        self, src: str, edge: str, key: str, value: Any
    ) -> None:
        self.record(ops.SetEdgeProperty(src, edge, key, value))

    def delete_edge_property(self, src: str, edge: str, key: str) -> None:
        self.record(ops.DeleteEdgeProperty(src, edge, key))

    def assign_property(self, edge: str, src: str, key: str, value: Any = True) -> None:
        """The paper's ``assign_property(edge, "OWNS")`` convenience: tag
        an edge with a (key, value) property, value defaulting to True."""
        self.set_edge_property(src, edge, key, value)

    # -- reads (at the transaction's snapshot, own writes visible) --------

    def get_vertex(self, handle: str) -> Dict[str, Any]:
        """The vertex's property map; raises if it does not exist."""
        self._check_open()
        record = self.store_tx.get(ops.vertex_key(handle))
        if record is None:
            raise NoSuchVertex(handle)
        return dict(record)

    def vertex_exists(self, handle: str) -> bool:
        self._check_open()
        return self.store_tx.exists(ops.vertex_key(handle))

    def get_edge(self, src: str, handle: str) -> Dict[str, Any]:
        """The edge record {"dst":..., "props":...}; raises if missing."""
        self._check_open()
        record = self.store_tx.get(ops.edge_key(src, handle))
        if record is None:
            raise NoSuchEdge(handle)
        return {"dst": record["dst"], "props": dict(record.get("props", {}))}

    # -- introspection ----------------------------------------------

    @property
    def touched_vertices(self) -> FrozenSet[str]:
        return ops.touched_vertices(self.operations)

    @property
    def created_vertices(self) -> List[str]:
        return [
            op.handle for op in self.operations
            if isinstance(op, ops.CreateVertex)
        ]

    def __len__(self) -> int:
        return len(self.operations)
