"""Exception hierarchy for the Weaver reproduction.

All library errors derive from :class:`WeaverError` so that callers can
catch everything raised by the package with a single ``except`` clause
while still being able to discriminate between failure classes.
"""

from __future__ import annotations


class WeaverError(Exception):
    """Base class for every error raised by this package."""


class TransactionAborted(WeaverError):
    """A transaction failed validation and must be retried by the client.

    Raised by the backing store on optimistic-concurrency conflicts and by
    gatekeepers when the timestamp-monotonicity check of section 4.2 fails.
    The ``reason`` attribute carries a short machine-readable tag.
    """

    def __init__(self, reason: str = "conflict"):
        super().__init__(f"transaction aborted: {reason}")
        self.reason = reason


class TransactionError(WeaverError):
    """A transaction is malformed or used after commit/abort."""


class NoSuchVertex(WeaverError):
    """A vertex handle does not name a live vertex at the read timestamp."""

    def __init__(self, handle: object):
        super().__init__(f"no such vertex: {handle!r}")
        self.handle = handle


class NoSuchEdge(WeaverError):
    """An edge handle does not name a live edge at the read timestamp."""

    def __init__(self, handle: object):
        super().__init__(f"no such edge: {handle!r}")
        self.handle = handle


class CycleError(WeaverError):
    """An ordering request would create a cycle in the timeline oracle's
    event dependency graph.

    The oracle never grants such a request; seeing this error in client code
    indicates a protocol bug, because shard servers only ask for orders that
    are consistent with already-committed decisions.
    """


class OrderingError(WeaverError):
    """Two timestamps could not be ordered (e.g. events never registered)."""


class ClusterError(WeaverError):
    """Cluster-management failure: unknown server, bad epoch, etc."""


class ConfigError(WeaverError, ValueError):
    """A :class:`~repro.db.config.WeaverConfig` field holds a value no
    deployment accepts."""


class StoreError(WeaverError):
    """Backing-store failure unrelated to transaction conflicts."""


class ProgramError(WeaverError):
    """A node program misbehaved (bad return value, unknown vertex, ...)."""


class GarbageCollectedError(WeaverError):
    """A read at a timestamp older than the GC watermark was attempted."""

    def __init__(self, requested: object, watermark: object):
        super().__init__(
            f"read at {requested!r} below GC watermark {watermark!r}"
        )
        self.requested = requested
        self.watermark = watermark
