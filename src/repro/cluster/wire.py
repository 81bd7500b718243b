"""The versioned binary wire codec for cross-process messages.

Everything that crosses a process boundary in the real deployment —
queued transactions, program requests, timestamps, operation payloads,
trace events — is encoded here as a length-prefixed, tagged binary frame.
No pickle: the codec supports exactly the value shapes Weaver's message
contract uses (scalars, containers, ``SimpleNamespace`` params,
``VectorTimestamp``, ``Ordering``, and the registered message/operation
dataclasses), so a malformed or unknown payload fails loudly instead of
executing arbitrary bytes.

The codec is **versioned, schema-checked and compiled**.  The expected
field tuple of every registered dataclass is pinned in ``WIRE_SCHEMA``
below; at import time :func:`verify_schema` compares the pin against the
live ``dataclasses.fields`` and then *builds* the codec from it: a
``type -> encoder`` dict, a 256-slot ``tag byte -> decoder`` table, and
one generated encoder/decoder pair per registered class (fields read by
name in pinned order, the class named on the wire by a one-byte id — its
position in ``WIRE_SCHEMA``).  Adding, removing, or reordering a class or
a field without bumping :data:`WIRE_VERSION` (and updating the pin plus
the golden digest in ``tests/test_wire.py``) is an import-time or
test-time error — old frames would otherwise decode into silently
shifted fields.

Frame format (format 5)::

    u32 length | u8 version | value

A ``count`` is one byte below 255, else ``0xFF`` and a u32.  A
``strings`` run is a count, one length byte per string, then the
strings' UTF-8 concatenated.  Values (1-byte tag, big-endian scalars)::

    N none | T true | F false
    i int64 | n bigint: count + two's-complement bytes | f float64
    s str: count + utf-8 | b bytes: count + raw
    l list | t tuple | e set | z frozenset: count + values
        (sets in sorted-encoding order, so equal sets are equal bytes)
    L list | U tuple of 3+ strings, each under 256 bytes: strings
    d dict: count + (key value)*
    D dict whose keys are all strings under 256 bytes: strings + values
    p SimpleNamespace: strings (the names, sorted) + values
    V VectorTimestamp: u8 clocks | u8 has-deadline | i64 epoch
        | u32 issuer | i64 per clock | f64 deadline when present
    O Ordering: u8 index
    0x80 + class id: a registered dataclass, its fields in pinned order

Types match exactly (a subclass of ``str`` or of a registered class does
not encode), and :func:`decode` raises nothing but :class:`WireError`.

Format 5 has format 4's tags and bodies; what changed is the classes.
The image-pull round request left the schema with the path it served
(every later class id moved down by one, which is why a class leaves
only with a version bump) and ``ProgramStart`` gained ``init``.
``FrontierForward`` carries its hops in columns — the handles as one
string run, every order key as one ``b`` value, each distinct params
object once, one ``b`` value of packed ``u32`` indices
(:mod:`~repro.cluster.messages` owns that layout).  There is no
format-4 decoder.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from itertools import accumulate
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Tuple, Type

from ..core.vclock import Ordering, VectorTimestamp
from ..db import operations as ops
from ..errors import WeaverError
from . import messages

#: Bump whenever a registered class's field tuple changes, whenever a
#: class is added, removed or renumbered, or whenever a tag's encoding
#: changes.
WIRE_VERSION = 5
_VERSION_BYTE = bytes((WIRE_VERSION,))

#: The largest payload a frame may carry.  A length prefix above it is
#: garbage (or an attack), not a message to wait for or buffer toward.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_U32 = struct.Struct(">I")
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

#: The pinned wire schema: class name -> field names in wire order.  A
#: class's position here is its one-byte wire id, so append, never
#: insert, and remove only together with a version bump.  This is the contract with already-encoded frames;
#: ``verify_schema`` fails the import when the live dataclasses drift
#: from it.
WIRE_SCHEMA: Dict[str, Tuple[str, ...]] = {
    # cluster/messages.py — every cross-server payload type.
    "QueuedTransaction": ("ts", "operations", "seqno", "tiebreak",
                          "trace_id"),
    "AnnounceMessage": ("src", "vector"),
    "ProgramStart": ("ts", "query_id", "program", "frontier", "trace_id",
                     "cache_tail", "max_visits", "init"),
    "FrontierForward": ("query_id", "round", "handles", "keys", "params",
                        "param_of"),
    "Heartbeat": ("server", "epoch", "sent_at"),
    # db/operations.py — the payloads of a QueuedTransaction.
    "CreateVertex": ("handle",),
    "DeleteVertex": ("handle",),
    "CreateEdge": ("handle", "src", "dst"),
    "DeleteEdge": ("src", "handle"),
    "SetVertexProperty": ("handle", "key", "value"),
    "DeleteVertexProperty": ("handle", "key"),
    "SetEdgeProperty": ("src", "handle", "key", "value"),
    "DeleteEdgeProperty": ("src", "handle", "key"),
}

#: class name -> class, for the generated codecs.
_CLASSES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in (
        messages.QueuedTransaction,
        messages.AnnounceMessage,
        messages.ProgramStart,
        messages.FrontierForward,
        messages.Heartbeat,
        ops.CreateVertex,
        ops.DeleteVertex,
        ops.CreateEdge,
        ops.DeleteEdge,
        ops.SetVertexProperty,
        ops.DeleteVertexProperty,
        ops.SetEdgeProperty,
        ops.DeleteEdgeProperty,
    )
}

_ORDERINGS = (
    Ordering.BEFORE, Ordering.AFTER, Ordering.CONCURRENT, Ordering.EQUAL
)
_ORDERING_BYTES = {o: bytes((ord("O"), i)) for i, o in enumerate(_ORDERINGS)}

#: First tag byte of the registered classes: tag = _CLASS_TAG_BASE + id.
_CLASS_TAG_BASE = 0x80


class WireError(WeaverError):
    """Encoding, decoding, framing, or schema failure on the wire."""


Encoder = Callable[[Any, Callable[[bytes], None]], None]
Decoder = Callable[[bytes, int], Tuple[Any, int]]

#: exact type -> encoder(value, append).  Filled by :func:`verify_schema`.
_ENCODERS: Dict[type, Encoder] = {}


def _bad_tag(data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos - 1]
    if tag >= _CLASS_TAG_BASE:
        raise WireError(
            f"unknown wire class id {tag - _CLASS_TAG_BASE} at offset "
            f"{pos - 1}"
        )
    raise WireError(f"unknown wire tag {bytes((tag,))!r} at offset {pos - 1}")


#: tag byte -> decoder(data, pos after the tag) -> (value, next pos).
#: Filled by :func:`verify_schema`; unassigned slots reject.
_DECODERS: List[Decoder] = [_bad_tag] * 256


# -- encoding ------------------------------------------------------------


#: tag -> ``tag + count`` for every one-byte count; slot 255 is the
#: escape a u32 follows.
_HEAD = {
    tag: [bytes((ord(tag), n)) for n in range(256)]
    for tag in "nsbltezLUdDp"
}


def _count_head(head: List[bytes], n: int) -> bytes:
    """``tag + count``.  The per-value encoders (str, list, tuple) spell
    this expression out instead of paying a call for it."""
    return head[n] if n < 255 else head[255] + _U32.pack(n)


_STR_ONLY = {str}


def _encode_none(value, append) -> None:
    append(b"N")


def _encode_bool(value, append) -> None:
    append(b"T" if value else b"F")


def _encode_int(value, append, pack=_TAG_I64.pack, head=_HEAD["n"]) -> None:
    try:
        append(pack(0x69, value))
    except struct.error:
        raw = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
        append(_count_head(head, len(raw)))
        append(raw)


def _encode_float(value, append, pack=_TAG_F64.pack) -> None:
    append(pack(0x66, value))


def _encode_str(value, append, head=_HEAD["s"]) -> None:
    raw = value.encode()
    n = len(raw)
    append(head[n] if n < 255 else head[255] + _U32.pack(n))
    append(raw)


def _encode_bytes(value, append, head=_HEAD["b"]) -> None:
    append(_count_head(head, len(value)))
    append(value)


#: (clock count, has deadline) -> Struct of a whole tagged timestamp.
_TS_STRUCTS: Dict[Tuple[int, int], struct.Struct] = {}


def _ts_struct(count: int, flag: int) -> struct.Struct:
    packer = _TS_STRUCTS.get((count, flag))
    if packer is None:
        if count > 255 or flag > 1:
            raise WireError(
                f"malformed timestamp header: {count} clocks, flag {flag}"
            )
        packer = _TS_STRUCTS[count, flag] = struct.Struct(
            f">BBBqI{count}q" + ("d" if flag else "")
        )
    return packer


def _encode_timestamp(value, append, structs=_TS_STRUCTS) -> None:
    clocks = value.clocks
    n = len(clocks)
    deadline = value.deadline
    if deadline is None:
        packer = structs.get((n, 0)) or _ts_struct(n, 0)
        append(packer.pack(0x56, n, 0, value.epoch, value.issuer, *clocks))
    else:
        packer = structs.get((n, 1)) or _ts_struct(n, 1)
        append(packer.pack(
            0x56, n, 1, value.epoch, value.issuer, *clocks, deadline
        ))


def _encode_ordering(value, append) -> None:
    append(_ORDERING_BYTES[value])


def _string_run(head: List[bytes], strings, n: int):
    """``head`` + count, one length byte per string, then the strings
    concatenated: one join and one encode for the lot.  None when a
    string takes 256 bytes or more (the caller encodes item by item)."""
    text = "".join(strings)
    blob = text.encode()
    try:
        lengths = bytes(
            map(len, strings) if len(blob) == len(text)    # ASCII
            else [len(item.encode()) for item in strings]
        )
    except ValueError:
        return None
    return _count_head(head, n) + lengths + blob


def _sequence_encoder(tag: str, str_tag: str) -> Encoder:
    head, str_head = _HEAD[tag], _HEAD[str_tag]

    def encode_sequence(value, append) -> None:
        n = len(value)
        # A homogeneous run of strings is packed in one call; the first
        # and last item rule most other sequences out cheaply.
        if n > 2 and type(value[0]) is str and type(value[-1]) is str and (
            set(map(type, value)) == _STR_ONLY
        ):
            run = _string_run(str_head, value, n)
            if run is not None:
                append(run)
                return
        append(head[n] if n < 255 else head[255] + _U32.pack(n))
        encoders = _ENCODERS
        for item in value:
            encoders[type(item)](item, append)

    return encode_sequence


def _encode_one(value) -> bytes:
    out: List[bytes] = []
    _ENCODERS[type(value)](value, out.append)
    return b"".join(out)


def _set_encoder(tag: str) -> Encoder:
    head = _HEAD[tag]

    def encode_set(value, append) -> None:
        # Deterministic frames: unordered containers are serialized in
        # sorted-encoding order.
        append(_count_head(head, len(value)))
        for part in sorted(map(_encode_one, value)):
            append(part)

    return encode_set


#: Mappings of at most this many string keys have their key run
#: remembered: messages reuse the same few key sets (envelopes, result
#: payloads, edge records, program parameters) on every frame.
_KEY_MEMO_KEYS = 16
#: Entries a key memo may hold before it is cleared.
_KEY_MEMO_SIZE = 512
#: dict keys in order -> their run, tagged ``D``.
_DICT_KEY_RUNS: Dict[Tuple[str, ...], bytes] = {}
#: namespace attribute names in order -> (the names sorted, their run
#: tagged ``p``).
_NAMESPACE_KEY_RUNS: Dict[Tuple[str, ...], Tuple[List[str], bytes]] = {}


def _remember(memo: dict, key, entry) -> None:
    if len(memo) >= _KEY_MEMO_SIZE:
        memo.clear()
    memo[key] = entry


def _encode_dict(value, append, head=_HEAD["d"], str_head=_HEAD["D"]) -> None:
    n = len(value)
    encoders = _ENCODERS
    for key in value:
        if type(key) is not str:
            break
    else:
        # String keys only: the keys go as one run, remembered for the
        # small key sets that recur.
        if 0 < n <= _KEY_MEMO_KEYS:
            names = tuple(value)
            run = _DICT_KEY_RUNS.get(names)
            if run is None:
                run = _string_run(str_head, names, n)
                if run is not None:
                    _remember(_DICT_KEY_RUNS, names, run)
        else:
            run = _string_run(str_head, value, n) if n else None
        if run is not None:
            append(run)
            for item in value.values():
                encoders[type(item)](item, append)
            return
    append(_count_head(head, n))
    for key, item in value.items():
        encoders[type(key)](key, append)
        encoders[type(item)](item, append)


def _namespace_keys(names: Tuple[str, ...]) -> Tuple[List[str], bytes]:
    keys = sorted(names)
    run = _string_run(_HEAD["p"], keys, len(keys))
    if run is None:
        raise WireError("namespace attribute name of 256 bytes or more")
    if len(names) <= _KEY_MEMO_KEYS:
        _remember(_NAMESPACE_KEY_RUNS, names, (keys, run))
    return keys, run


def _encode_namespace(value, append) -> None:
    attrs = vars(value)
    names = tuple(attrs)
    keys, run = _NAMESPACE_KEY_RUNS.get(names) or _namespace_keys(names)
    append(run)
    encoders = _ENCODERS
    for key in keys:
        item = attrs[key]
        encoders[type(item)](item, append)


def encode(value: Any) -> bytes:
    """One versioned payload (no length prefix)."""
    out: List[bytes] = [_VERSION_BYTE]
    try:
        _ENCODERS[type(value)](value, out.append)
    except KeyError as exc:     # no encoder for this exact type
        raise WireError(
            f"cannot encode {exc.args[0].__qualname__!r} on the wire"
        ) from None
    except (struct.error, ValueError, TypeError, RecursionError) as exc:
        raise WireError(f"cannot encode on the wire: {exc}") from exc
    return b"".join(out)


# -- decoding ------------------------------------------------------------


def _decode_none(data, pos):
    return None, pos


def _decode_true(data, pos):
    return True, pos


def _decode_false(data, pos):
    return False, pos


def _decode_int(data, pos, unpack=_I64.unpack_from):
    return unpack(data, pos)[0], pos + 8


def _decode_count(data, pos):
    """A count -> (count, next pos).  The per-value decoders (str, list,
    tuple) spell this out instead of paying a call for it."""
    n = data[pos]
    if n == 255:
        return _U32.unpack_from(data, pos + 1)[0], pos + 5
    return n, pos + 1


def _decode_bigint(data, pos):
    n, pos = _decode_count(data, pos)
    end = pos + n
    return int.from_bytes(data[pos:end], "big", signed=True), end


def _decode_float(data, pos, unpack=_F64.unpack_from):
    return unpack(data, pos)[0], pos + 8


def _decode_str(data, pos):
    n = data[pos]
    pos += 1
    if n == 255:
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
    end = pos + n
    return data[pos:end].decode(), end


def _decode_bytes(data, pos):
    n, pos = _decode_count(data, pos)
    end = pos + n
    return data[pos:end], end


def _decode_timestamp(data, pos):
    count = data[pos]
    flag = data[pos + 1]
    packer = _TS_STRUCTS.get((count, flag)) or _ts_struct(count, flag)
    fields = packer.unpack_from(data, pos - 1)
    end = pos - 1 + packer.size
    if flag:
        return VectorTimestamp(
            fields[3], fields[5:-1], fields[4], fields[-1]
        ), end
    return VectorTimestamp(fields[3], fields[5:], fields[4]), end


def _decode_ordering(data, pos):
    return _ORDERINGS[data[pos]], pos + 1


def _sequence_decoder(build) -> Decoder:
    def decode_sequence(data, pos):
        n = data[pos]
        pos += 1
        if n == 255:
            (n,) = _U32.unpack_from(data, pos)
            pos += 4
        items = []
        append = items.append
        decoders = _DECODERS
        for _ in range(n):
            item, pos = decoders[data[pos]](data, pos + 1)
            append(item)
        return (items if build is list else build(items)), pos

    return decode_sequence


def _decode_tuple(data, pos, decode_longer=_sequence_decoder(tuple)):
    # Most tuples on the wire are empty or a pair (``operations`` of a
    # NOP, ``(kind, payload)``, ``(gatekeeper, transaction)``): those
    # are built without a list in between.
    n = data[pos]
    if n > 2:
        return decode_longer(data, pos)
    pos += 1
    if n == 0:
        return (), pos
    decoders = _DECODERS
    first, pos = decoders[data[pos]](data, pos + 1)
    if n == 1:
        return (first,), pos
    second, pos = decoders[data[pos]](data, pos + 1)
    return (first, second), pos


def _decode_string_run(data, pos):
    """The body of a string run -> (list of str, next pos)."""
    n, pos = _decode_count(data, pos)
    lengths = data[pos:pos + n]
    pos += n
    ends = list(accumulate(lengths))
    total = ends[-1] if ends else 0
    end = pos + total
    if len(lengths) != n or end > len(data):
        raise WireError(f"string run overruns the payload at offset {pos}")
    text = data[pos:end].decode()
    if len(text) == total:      # ASCII: byte offsets are str indices
        return [text[a:b] for a, b in zip([0] + ends, ends)], end
    blob = data[pos:end]
    return [blob[a:b].decode() for a, b in zip([0] + ends, ends)], end


def _decode_string_tuple(data, pos):
    items, pos = _decode_string_run(data, pos)
    return tuple(items), pos


def _decode_dict(data, pos):
    n, pos = _decode_count(data, pos)
    mapping = {}
    decoders = _DECODERS
    for _ in range(n):
        key, pos = decoders[data[pos]](data, pos + 1)
        mapping[key], pos = decoders[data[pos]](data, pos + 1)
    return mapping, pos


#: encoded key run (without its tag) -> the keys; the decode-side twin
#: of the key-run memos, bounded the same way.
_KEY_LISTS: Dict[bytes, List[str]] = {}


def _decode_keys(data, pos):
    """The key run of a string-keyed dict or a namespace."""
    n = data[pos]
    if n > _KEY_MEMO_KEYS:
        return _decode_string_run(data, pos)
    end = pos + 1 + n
    end += sum(data[pos + 1:end])
    run = data[pos:end]
    keys = _KEY_LISTS.get(run)
    if keys is None:
        keys, end = _decode_string_run(data, pos)
        _remember(_KEY_LISTS, run, keys)
    return keys, end


def _decode_string_dict(data, pos):
    keys, pos = _decode_keys(data, pos)
    mapping = {}
    decoders = _DECODERS
    for key in keys:
        mapping[key], pos = decoders[data[pos]](data, pos + 1)
    return mapping, pos


def _decode_namespace(data, pos):
    attrs, pos = _decode_string_dict(data, pos)
    return SimpleNamespace(**attrs), pos


def _offset_of(exc: BaseException):
    """Where the innermost decoder was reading when ``exc`` left it.

    Read off the traceback, so the hot path carries no bookkeeping for
    it — which is why every decoder, the generated ones included, must
    name its cursor ``pos``."""
    offset = None
    trace = exc.__traceback__
    while trace is not None:
        offset = trace.tb_frame.f_locals.get("pos", offset)
        trace = trace.tb_next
    return offset


def decode(data: bytes) -> Any:
    """Decode one payload produced by :func:`encode`.  A payload that is
    not one raises :class:`WireError` and nothing else."""
    if not data:
        raise WireError("empty wire payload")
    if data[0] != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: got {data[0]}, "
            f"expected {WIRE_VERSION}"
        )
    if type(data) is not bytes:
        data = bytes(data)
    try:
        value, pos = _DECODERS[data[1]](data, 2)
    except (IndexError, struct.error, ValueError, TypeError,
            RecursionError) as exc:
        raise WireError(
            f"malformed wire payload near offset {_offset_of(exc)} of "
            f"{len(data)}: {type(exc).__name__}: {exc}"
        ) from exc
    if pos != len(data):
        raise WireError(
            f"trailing bytes on the wire: {len(data) - pos} after payload"
            if pos < len(data) else
            f"truncated wire payload: {pos - len(data)} bytes short"
        )
    return value


# -- the schema and the codec built from it ------------------------------


def _compile_class(class_id: int, cls: Type, fields: Tuple[str, ...]):
    """Generate the encoder and decoder of one registered dataclass:
    straight-line code, one dispatch per field, no loop and no getattr.

    The decoder restores an instance the way ``copy.copy`` does — a
    new object whose instance dict is filled field by field — not by
    calling ``__init__``, which on a frozen dataclass costs an
    ``object.__setattr__`` per field.  That is only sound for a class
    that keeps its state in ``__dict__`` and derives nothing on
    construction, so a class with ``__post_init__`` or ``__slots__``
    is refused at build time.
    """
    if hasattr(cls, "__post_init__") or not cls.__dictoffset__:
        raise WireError(
            f"wire class {cls.__name__} defines __post_init__ or "
            "__slots__: its decoder cannot restore it field by field"
        )
    tag = bytes((_CLASS_TAG_BASE + class_id,))
    lines = [f"def encode_{cls.__name__}(value, append):",
             f"    append({tag!r})"]
    for name in fields:
        lines += [f"    item = value.{name}",
                  "    encoders[type(item)](item, append)"]
    lines += ["", f"def decode_{cls.__name__}(data, pos):",
              "    value = new(cls)",
              "    fields = value.__dict__"]
    for name in fields:
        lines.append(
            f"    fields[{name!r}], pos = decoders[data[pos]](data, pos + 1)"
        )
    lines.append("    return value, pos")
    namespace = {"encoders": _ENCODERS, "decoders": _DECODERS, "cls": cls,
                 "new": object.__new__}
    exec("\n".join(lines), namespace)
    return (namespace[f"encode_{cls.__name__}"],
            namespace[f"decode_{cls.__name__}"])


#: The codec of everything that is not a registered class: exact type
#: -> encoder, tag -> decoder.  Their tags are part of the format.
_BUILTIN_ENCODERS: Dict[type, Encoder] = {
    type(None): _encode_none, bool: _encode_bool, int: _encode_int,
    float: _encode_float, str: _encode_str, bytes: _encode_bytes,
    list: _sequence_encoder("l", "L"),
    tuple: _sequence_encoder("t", "U"),
    set: _set_encoder("e"), frozenset: _set_encoder("z"),
    dict: _encode_dict, SimpleNamespace: _encode_namespace,
    VectorTimestamp: _encode_timestamp, Ordering: _encode_ordering,
}
_BUILTIN_DECODERS: Dict[str, Decoder] = {
    "N": _decode_none, "T": _decode_true, "F": _decode_false,
    "i": _decode_int, "n": _decode_bigint, "f": _decode_float,
    "s": _decode_str, "b": _decode_bytes,
    "l": _sequence_decoder(list), "t": _decode_tuple,
    "e": _sequence_decoder(set), "z": _sequence_decoder(frozenset),
    "L": _decode_string_run, "U": _decode_string_tuple,
    "d": _decode_dict, "D": _decode_string_dict, "p": _decode_namespace,
    "V": _decode_timestamp, "O": _decode_ordering,
}


def verify_schema() -> None:
    """Compare the pinned schema against the live dataclasses, then
    build the codec tables from it.

    Raises :class:`WireError` when a registered class gained, lost, or
    reordered fields without a codec-version bump — the failure mode
    where old frames decode into the wrong fields.  The tables in use
    are replaced only once every class has compiled.
    """
    for name, pinned in WIRE_SCHEMA.items():
        cls = _CLASSES.get(name)
        if cls is None:
            raise WireError(f"wire schema pins unknown class {name!r}")
        live = tuple(f.name for f in dataclasses.fields(cls))
        if live != pinned:
            raise WireError(
                f"wire schema drift on {name}: fields {live!r} != pinned "
                f"{pinned!r} — bump WIRE_VERSION and update WIRE_SCHEMA "
                "plus the golden digest in tests/test_wire.py"
            )
    extra = set(_CLASSES) - set(WIRE_SCHEMA)
    if extra:
        raise WireError(f"classes without a schema pin: {sorted(extra)}")

    encoders = dict(_BUILTIN_ENCODERS)
    decoders = [_bad_tag] * 256
    for tag, decoder in _BUILTIN_DECODERS.items():
        decoders[ord(tag)] = decoder
    for class_id, (name, pinned) in enumerate(WIRE_SCHEMA.items()):
        cls = _CLASSES[name]
        encoders[cls], decoders[_CLASS_TAG_BASE + class_id] = (
            _compile_class(class_id, cls, pinned)
        )
    _ENCODERS.clear()
    _ENCODERS.update(encoders)
    _DECODERS[:] = decoders


def schema_digest() -> str:
    """A stable digest of the version, the tag table, and every class's
    (id, name, field...) — the golden value tests pin so schema or
    layout drift fails loudly."""
    h = hashlib.sha256()
    h.update(f"wire-version={WIRE_VERSION}\n".encode())
    h.update(f"tags={''.join(sorted(_BUILTIN_DECODERS))}\n".encode())
    for class_id, (name, fields) in enumerate(WIRE_SCHEMA.items()):
        tag = _CLASS_TAG_BASE + class_id
        h.update(f"{tag:#04x}={name}({','.join(fields)})\n".encode())
    return h.hexdigest()


# -- framing -------------------------------------------------------------


def _check_frame_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )


def write_frame(sock, payload: bytes) -> int:
    """Write one length-prefixed frame; returns bytes on the wire."""
    _check_frame_length(len(payload))
    frame = _U32.pack(len(payload)) + payload
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> bytes:
    """Read one length-prefixed frame (blocking).  Raises
    :class:`WireError` when the peer closed the connection or the
    length prefix is over :data:`MAX_FRAME_BYTES`."""
    header = _recv_exact(sock, 4)
    (length,) = _U32.unpack(header)
    _check_frame_length(length)
    return _recv_exact(sock, length)


class FrameBuffer:
    """Incremental frame reassembly for non-blocking sockets.

    Feed raw received bytes in; complete frames come out.  Used by the
    worker selector loops, where one ``recv`` may carry part of a frame
    or several frames.
    """

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, chunk: bytes) -> List[bytes]:
        self._data.extend(chunk)
        frames = []
        while len(self._data) >= 4:
            (length,) = _U32.unpack_from(self._data, 0)
            _check_frame_length(length)
            if len(self._data) < 4 + length:
                break
            frames.append(bytes(self._data[4:4 + length]))
            del self._data[:4 + length]
        return frames


# Fail at import when the live dataclasses drift from the pinned schema;
# otherwise build the codec from it.
verify_schema()
