"""The wire codec: round-trips, framing, and schema pinning.

Every dataclass in ``cluster/messages.py`` (and every operation payload
a ``QueuedTransaction`` can carry) must survive an encode/decode round
trip bit-exactly, and the schema digest is pinned so adding a field to
any wire class without bumping ``WIRE_VERSION`` fails this suite loudly
instead of silently shifting fields in old frames.  The format is also
pinned by bytes (``wire_fixtures.GOLDEN_HEX``), exercised by a seeded
random value generator, and fuzzed: whatever the payload, ``decode``
answers with a value or a ``WireError``.
"""

import random
import socket
import struct
from types import SimpleNamespace

import pytest

from repro.cluster import wire
from repro.cluster.messages import (
    AnnounceMessage,
    FrontierForward,
    Heartbeat,
    ProgramStart,
    QueuedTransaction,
)
from repro.core.vclock import Ordering, VectorTimestamp
from repro.db import operations as ops
from tests import wire_fixtures
from tests.wire_fixtures import order_key

# The golden schema digest: (WIRE_VERSION, the tag table, and every
# class's wire id, name and field...) hashed.  A change here means old
# frames no longer decode the same way — bump wire.WIRE_VERSION, update
# WIRE_SCHEMA, and re-pin this value (and wire_fixtures.GOLDEN_HEX).
GOLDEN_SCHEMA_DIGEST = (
    "6109ce36a6fd1e332765062575b92e43a5308cb56c7b6b144132ee2875bf55cf"
)

TS = VectorTimestamp(epoch=2, clocks=(3, 1, 4), issuer=1)
TS2 = VectorTimestamp(epoch=0, clocks=(7, 0, 0), issuer=0)

ALL_OPERATIONS = [
    ops.CreateVertex("v1"),
    ops.DeleteVertex("v2"),
    ops.CreateEdge("e1", "v1", "v2"),
    ops.DeleteEdge("v1", "e1"),
    ops.SetVertexProperty("v1", "color", "red"),
    ops.DeleteVertexProperty("v1", "color"),
    ops.SetEdgeProperty("v1", "e1", "weight", 3),
    ops.DeleteEdgeProperty("v1", "e1", "weight"),
]

ALL_MESSAGES = [
    QueuedTransaction(TS, tuple(ALL_OPERATIONS), seqno=7, tiebreak=42,
                      trace_id=99),
    QueuedTransaction(TS2),  # a NOP: defaults everywhere
    AnnounceMessage(1, (3, 1, 4)),
    ProgramStart(TS, 7, "bfs",
                 (("v1", SimpleNamespace(depth=0), order_key(0)),
                  ("v2", None, order_key(1))),
                 trace_id=3, cache_tail=("repr", 9), max_visits=100),
    ProgramStart(TS2, 8, "reachability", ()),  # defaults: init is None
    ProgramStart(TS2, 9, "push_pagerank", (),
                 init={"damping": 0.6, "epsilon": 1e-2}),
    FrontierForward.from_rows(7, 2, [("v2", None, order_key(0, 1, 0))]),
    Heartbeat("shard0", 3, 1.25),
]

SCALARS = [
    None, True, False, 0, -1, 2**62, 2**80, -(2**90), 1.5, "", "héllo",
    b"\x00\xff", [], [1, [2, "x"]], (1, (2,)), {"a": 1, 2: "b"},
    {1, 2, 3}, frozenset({"a", "b"}), SimpleNamespace(x=1, y=(2, 3)),
    TS, TS2, Ordering.BEFORE, Ordering.AFTER, Ordering.CONCURRENT,
    Ordering.EQUAL,
]


@pytest.mark.parametrize("value", SCALARS, ids=repr)
def test_scalar_round_trip(value):
    decoded = wire.decode(wire.encode(value))
    assert decoded == value
    assert type(decoded) is type(value)


@pytest.mark.parametrize(
    "message", ALL_MESSAGES, ids=lambda m: type(m).__name__
)
def test_message_round_trip(message):
    assert wire.decode(wire.encode(message)) == message


@pytest.mark.parametrize(
    "operation", ALL_OPERATIONS, ids=lambda o: type(o).__name__
)
def test_operation_round_trip(operation):
    assert wire.decode(wire.encode(operation)) == operation


def test_every_registered_class_is_exercised():
    """The round-trip lists above must cover the full wire schema, so a
    newly registered class without a test here fails loudly."""
    covered = {type(m).__name__ for m in ALL_MESSAGES}
    covered |= {type(o).__name__ for o in ALL_OPERATIONS}
    assert covered == set(wire.WIRE_SCHEMA)


def test_nested_timestamp_identity():
    decoded = wire.decode(wire.encode(QueuedTransaction(TS)))
    assert decoded.ts == TS
    assert decoded.ts.id == TS.id
    assert hash(decoded.ts) == hash(TS)


def test_unordered_containers_encode_deterministically():
    a = wire.encode({"s": {3, 1, 2}, "z": frozenset({"b", "a"})})
    b = wire.encode({"s": {2, 3, 1}, "z": frozenset({"a", "b"})})
    assert a == b


def test_unencodable_value_fails_loudly():
    with pytest.raises(wire.WireError):
        wire.encode(object())
    with pytest.raises(wire.WireError):
        wire.encode(lambda: None)  # no closures across the wire


def test_version_mismatch_rejected():
    payload = wire.encode("hello")
    stale = bytes([wire.WIRE_VERSION + 1]) + payload[1:]
    with pytest.raises(wire.WireError, match="version mismatch"):
        wire.decode(stale)


def test_trailing_bytes_rejected():
    with pytest.raises(wire.WireError, match="trailing"):
        wire.decode(wire.encode(1) + b"x")


def test_schema_digest_pinned():
    assert wire.schema_digest() == GOLDEN_SCHEMA_DIGEST, (
        "wire schema changed: if this is intentional, bump WIRE_VERSION "
        "in src/repro/cluster/wire.py, update WIRE_SCHEMA, and re-pin "
        "GOLDEN_SCHEMA_DIGEST here"
    )


def test_schema_drift_detected(monkeypatch):
    """A field added to a wire class without updating the pin is an
    import-time error, not a silent field shift."""
    monkeypatch.setitem(
        wire.WIRE_SCHEMA, "Heartbeat", ("server", "epoch")
    )
    with pytest.raises(wire.WireError, match="drift"):
        wire.verify_schema()


def test_schema_pin_for_unknown_class_detected(monkeypatch):
    monkeypatch.setitem(wire.WIRE_SCHEMA, "Bogus", ("x",))
    with pytest.raises(wire.WireError, match="unknown class"):
        wire.verify_schema()


def test_unknown_class_on_decode_rejected():
    # Hand-craft a frame whose tag is the first unregistered class id.
    unregistered = 0x80 + len(wire.WIRE_SCHEMA)
    payload = bytes([wire.WIRE_VERSION, unregistered]) + b"Bogus"
    with pytest.raises(wire.WireError, match="unknown wire class"):
        wire.decode(payload)


def test_class_ids_are_schema_positions():
    """A class is named on the wire by one byte: 0x80 + its position in
    WIRE_SCHEMA.  Reordering the schema renumbers old frames, which is
    why the digest covers the ids."""
    for class_id, name in enumerate(wire.WIRE_SCHEMA):
        message = next(
            m for m in ALL_MESSAGES + ALL_OPERATIONS
            if type(m).__name__ == name
        )
        assert wire.encode(message)[1] == 0x80 + class_id


def test_subclass_of_a_wire_type_fails_loudly():
    class Handle(str):
        pass

    class MyTransaction(QueuedTransaction):
        pass

    for value in (Handle("v1"), MyTransaction(TS), [Handle("a")] * 3,
                  {Handle("k"): 1}, {"k": Handle("v")}):
        with pytest.raises(wire.WireError, match="cannot encode"):
            wire.encode(value)


def test_class_with_post_init_is_refused_at_build_time(monkeypatch):
    """Generated decoders restore instances field by field, without
    ``__init__``; a class that derives state on construction must not
    be registered silently."""
    monkeypatch.setattr(
        Heartbeat, "__post_init__", lambda self: None, raising=False
    )
    with pytest.raises(wire.WireError, match="__post_init__"):
        wire.verify_schema()


# -- the format, by bytes ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(wire_fixtures.FRAMES))
def test_golden_frames(name):
    """One frame of each envelope shape a read puts on the wire, pinned
    byte for byte: a layout change fails here even if the schema digest
    did not move."""
    frame = wire_fixtures.FRAMES[name]
    golden = bytes.fromhex(wire_fixtures.GOLDEN_HEX[name])
    assert wire.encode(frame).hex() == golden.hex()
    assert wire.decode(golden) == frame


@pytest.mark.parametrize("deadline", [None, 1.5, 0.0])
def test_timestamp_deadline_round_trips(deadline):
    """``deadline`` is ``compare=False``: ``==`` cannot see it dropped."""
    ts = VectorTimestamp(0, (3, 4), 1, deadline=deadline)
    decoded = wire.decode(wire.encode(QueuedTransaction(ts))).ts
    assert decoded == ts
    assert decoded.deadline == deadline
    assert type(decoded.deadline) is type(deadline)


def _tag(value) -> bytes:
    return wire.encode(value)[1:2]


def test_run_forms_are_for_homogeneous_sequences_only():
    """Three or more plain strings take the packed run; one item of
    another type or an overlong string sends the whole sequence item by
    item, as ints always go — and either way it round-trips."""
    long_string = "x" * 256
    cases = [
        (["a", "b", "c"], b"L"), (("a", "b", "c"), b"U"),
        ([1, 2, 3], b"l"), ((1, 2, 3), b"t"),
        (["a", "b", 3], b"l"), (("a", 2, "c"), b"t"),
        ([1, 2, True], b"l"), ((1, True, 3), b"t"),
        ([1, 2, 2**70], b"l"), (["a", "b", long_string], b"l"),
        (["a", None, "c"], b"l"), (["a", "b"], b"l"), ((1, 2), b"t"),
        ({"a": 1, "b": 2}, b"D"), ({"a": 1, 2: "b"}, b"d"),
        ({long_string: 1}, b"d"), ({}, b"d"),
        (list(range(256)), b"l"),
        (["héllo", "wörld", "ß"], b"L"),
    ]
    for value, tag in cases:
        assert _tag(value) == tag, value
        decoded = wire.decode(wire.encode(value))
        assert decoded == value
        assert [type(item) for item in decoded] == [
            type(item) for item in value
        ]


def test_bool_and_int_and_tuple_and_list_stay_distinct():
    decoded = wire.decode(wire.encode([True, 1, False, 0, (1,), [1]]))
    assert [type(item) for item in decoded] == [
        bool, int, bool, int, tuple, list
    ]
    assert type(wire.decode(wire.encode({1: "a", True + 1: "b"}))[1]) is str


def test_sets_are_byte_identical_across_insertion_orders():
    members = ["b", "a", 3, 1, (2, "x"), None, 2**70, -1.5]
    forward = wire.encode([set(members), frozenset(members)])
    backward = wire.encode(
        [set(reversed(members)), frozenset(reversed(members))]
    )
    assert forward == backward
    assert wire.decode(forward) == [set(members), frozenset(members)]


_ALPHABET = "abcxyz_0123456789 é☃\x00"


def _random_string(rng) -> str:
    length = rng.choice((0, 1, 5, 12, 255, 256, 300))
    return "".join(rng.choice(_ALPHABET) for _ in range(length))


def _random_scalar(rng):
    return rng.choice((
        lambda: None, lambda: True, lambda: False,
        lambda: rng.choice((0, 1, -1, 255, 2**63 - 1, -(2**63), 2**63,
                            -(2**63) - 1, 2**200, -(2**200))),
        lambda: rng.randrange(-10**6, 10**6),
        lambda: rng.choice((0.0, -1.5, 1e300, float("inf"))),
        lambda: _random_string(rng),
        lambda: bytes(rng.randrange(256) for _ in range(rng.choice((0, 3, 300)))),
        lambda: rng.choice(list(Ordering)),
        lambda: VectorTimestamp(
            rng.randrange(-1, 5), (rng.randrange(2**40), rng.randrange(9)),
            rng.randrange(2), rng.choice((None, 2.5)),
        ),
    ))()


def _random_value(rng, depth=0):
    if depth >= 3 or rng.random() < 0.3:
        return _random_scalar(rng)
    size = rng.choice((0, 1, 2, 3, 7))
    items = [_random_value(rng, depth + 1) for _ in range(size)]
    kind = rng.randrange(10)
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    if kind == 2:       # homogeneous: the run forms
        return rng.choice((list, tuple))(
            rng.choice((
                [_random_string(rng) for _ in range(size)],
                [rng.randrange(-2**63, 2**63) for _ in range(size)],
            ))
        )
    if kind in (3, 4):
        members = [_random_scalar(rng) for _ in range(size)]
        return (set if kind == 3 else frozenset)(
            m for m in members if m == m    # no NaN: it never equals itself
        )
    if kind == 5:
        return {_random_string(rng): item for item in items}
    if kind == 6:
        return {
            rng.choice((i, str(i), (i,), None, 1.5)): item
            for i, item in enumerate(items)
        }
    if kind == 7:
        return SimpleNamespace(**{f"p{i}_é": item for i, item in enumerate(items)})
    if kind == 8:
        return QueuedTransaction(
            _random_scalar(rng), tuple(items), rng.randrange(99), None,
        )
    return FrontierForward.from_rows(rng.randrange(99), 1, [
        (_random_string(rng), item, order_key(0, i))
        for i, item in enumerate(items)
    ])


def _typed(value):
    """``value`` with every type made explicit, so that ``True == 1``
    and friends cannot hide a tag mix-up."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(item) for item in value])
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, sorted(map(repr, map(_typed, value))))
    if isinstance(value, dict):
        return ("dict", [(_typed(k), _typed(v)) for k, v in value.items()])
    if isinstance(value, SimpleNamespace):
        return ("namespace", _typed(dict(sorted(vars(value).items()))))
    if isinstance(value, VectorTimestamp):
        return ("ts", value.epoch, value.clocks, value.issuer,
                _typed(value.deadline))
    if type(value).__name__ in wire.WIRE_SCHEMA:
        return (type(value).__name__, _typed(vars(value)))
    return (type(value).__name__, value)


def test_seeded_random_values_round_trip():
    rng = random.Random(20160905)
    seen_tags = set()
    for _ in range(1500):
        value = _random_value(rng)
        payload = wire.encode(value)
        seen_tags.add(payload[1:2].decode("latin-1"))
        assert _typed(wire.decode(payload)) == _typed(value)
        assert wire.encode(wire.decode(payload)) == payload
    builtin = set(wire._BUILTIN_DECODERS)
    assert builtin <= seen_tags, sorted(builtin - seen_tags)


# -- decode raises only WireError -----------------------------------------


def test_corrupt_payloads_raise_only_wire_error():
    """Every truncation and 3,000 seeded single-byte flips of one
    request frame: the only outcomes are a value or ``WireError``."""
    payload = wire.encode(wire_fixtures.REQUEST)
    rng = random.Random(7)
    corruptions = [payload[:cut] for cut in range(len(payload))]
    for _ in range(3000):
        at = rng.randrange(len(payload))
        flipped = payload[at] ^ (1 << rng.randrange(8))
        corruptions.append(payload[:at] + bytes([flipped]) + payload[at + 1:])
    rejected = 0
    for corrupt in corruptions:
        try:
            wire.decode(corrupt)
        except wire.WireError as exc:
            rejected += 1
            assert str(exc)
    assert rejected > len(payload)      # every truncation, at the least


@pytest.mark.parametrize("payload, offset", [
    (b"s\x05ab", None),                  # string runs off the end
    (b"l\x02N", 4),                      # list item missing
    (b"V\x02\x00\x00", 2),               # timestamp cut short
    (b"V\x02\x07" + bytes(28), None),    # bad deadline flag
    (b"V\x01\x00" + bytes(8) + b"\x00\x00\x00\x09" + bytes(8), None),
    (b"s\x02\xff\xfe", None),            # not UTF-8
    (b"O\x09", 2),                       # no such Ordering
    (b"e\x01l\x00", None),               # unhashable set member
    (b"d\x01l\x00N", None),              # unhashable dict key
    (b"L\x03\x01\x01", None),            # string run cut short
    (b"p\x01\x01", None),                # namespace keys cut short
    (b"l\xff\xff\xff\xff\xff", None),    # 4 Gi items promised
    (b"?", 1),                           # no such tag
])
def test_malformed_payloads_name_the_failure(payload, offset):
    with pytest.raises(wire.WireError) as caught:
        wire.decode(bytes([wire.WIRE_VERSION]) + payload)
    if offset is not None:
        assert f"offset {offset}" in str(caught.value)


def test_deeply_nested_garbage_is_a_wire_error():
    payload = bytes([wire.WIRE_VERSION]) + b"l\x01" * 100_000 + b"N"
    with pytest.raises(wire.WireError, match="RecursionError"):
        wire.decode(payload)


def test_unencodable_scalars_are_wire_errors():
    for value in ("\ud800", VectorTimestamp(0, (2**63, 0), 0),
                  VectorTimestamp(0, (0,) * 256, 0)):
        with pytest.raises(wire.WireError):
            wire.encode(value)


# -- framing -------------------------------------------------------------


def test_frame_round_trip_over_socketpair():
    a, b = socket.socketpair()
    try:
        payload = wire.encode(ALL_MESSAGES[0])
        sent = wire.write_frame(a, payload)
        assert sent == len(payload) + 4
        assert wire.decode(wire.read_frame(b)) == ALL_MESSAGES[0]
    finally:
        a.close()
        b.close()


def test_read_frame_raises_on_close():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(wire.WireError, match="closed"):
            wire.read_frame(b)
    finally:
        b.close()


def test_read_frame_rejects_an_oversized_length_prefix():
    """Four garbage bytes must not make a reader wait for 4 GiB."""
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", wire.MAX_FRAME_BYTES + 1) + b"junk")
        with pytest.raises(wire.WireError, match="MAX_FRAME_BYTES"):
            wire.read_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_buffer_rejects_an_oversized_length_prefix():
    buffer = wire.FrameBuffer()
    assert buffer.feed(struct.pack(">I", wire.MAX_FRAME_BYTES)) == []
    with pytest.raises(wire.WireError, match="MAX_FRAME_BYTES"):
        wire.FrameBuffer().feed(b"\xff\xff\xff\xff")


def test_write_frame_rejects_an_oversized_payload(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16)
    a, b = socket.socketpair()
    try:
        assert wire.write_frame(a, b"x" * 16) == 20
        with pytest.raises(wire.WireError, match="MAX_FRAME_BYTES"):
            wire.write_frame(a, b"x" * 17)
        assert wire.read_frame(b) == b"x" * 16
    finally:
        a.close()
        b.close()


def test_frame_buffer_reassembles_partial_and_coalesced_frames():
    frames_in = [wire.encode(m) for m in ALL_MESSAGES[:3]]
    stream = b"".join(
        wire._U32.pack(len(f)) + f for f in frames_in
    )
    buffer = wire.FrameBuffer()
    out = []
    # Drip-feed one byte at a time: every frame must still come out whole.
    for i in range(len(stream)):
        out.extend(buffer.feed(stream[i:i + 1]))
    assert [wire.decode(f) for f in out] == ALL_MESSAGES[:3]
