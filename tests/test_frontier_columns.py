"""Byte order keys, result tags and the column frame, each held to
what it replaces.

Order keys used to be tuples of ints and are now the concatenation of
one big-endian ``u32`` per level (``messages.pack_level``); a result
used to be tagged ``(round, key, seq)`` and is now tagged ``pack(round)
+ key + pack(seq)``; a ``FrontierForward`` used to carry ``(handle,
params, key)`` triples and now carries them in columns.  The engine
relies on each new form ordering, comparing and round-tripping exactly
as the old one did, which is what these tests state: property tests for
the two orders, a seeded round trip through the wire codec for the
frame, and the named refusals (an index a level cannot hold, columns
that do not describe one set of hops).
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import wire
from repro.cluster.messages import FrontierForward, pack_level
from repro.errors import ProgramError

from .wire_fixtures import order_key

# Small indices collide and share prefixes; large ones exercise every
# byte of a level, the last value a level can hold included.
INDEX = st.one_of(
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.sampled_from([255, 256, 2**16 - 1, 2**16, 2**24, 2**32 - 1]),
)


@st.composite
def hop_trees(draw):
    """The tuple keys of every round of one program: round 0 holds the
    start entries ``(i,)``, every later key extends a key of the round
    before it with a hop index — up to 6 rounds, up to 300 hops each."""
    rounds = [[(i,) for i in draw(st.lists(INDEX, min_size=1, max_size=8))]]
    for _ in range(draw(st.integers(0, 5))):
        hops = draw(st.lists(
            st.tuples(st.sampled_from(rounds[-1]), INDEX),
            min_size=1, max_size=300,
        ))
        rounds.append([parent + (i,) for parent, i in hops])
    return rounds


def _order(keys):
    """The permutation a stable sort applies: equal for two key lists
    exactly when they sort their entries (duplicates too) alike."""
    return sorted(range(len(keys)), key=keys.__getitem__)


@settings(max_examples=60, deadline=None)
@given(hop_trees(), st.data())
def test_byte_keys_order_compare_and_min_as_tuple_keys_do(rounds, data):
    for keys in rounds:
        packed = [order_key(*key) for key in keys]
        assert len({len(key) for key in packed}) == 1     # one length a round
        assert _order(packed) == _order(keys)             # _execute_round
        assert min(packed) == order_key(*min(keys))       # min(halts)
        halt = data.draw(st.sampled_from(keys))           # _fragment's filter
        assert [key <= order_key(*halt) for key in packed] == [
            key <= halt for key in keys
        ]


@settings(max_examples=60, deadline=None)
@given(hop_trees(), st.data())
def test_result_tags_sort_as_round_key_seq_triples_do(rounds, data):
    triples = [
        (round_no, key, data.draw(INDEX))
        for round_no, keys in enumerate(rounds) for key in keys
    ]
    tags = [
        pack_level(round_no, "rounds") + order_key(*key)
        + pack_level(seq, "results")
        for round_no, key, seq in triples
    ]
    assert _order(tags) == _order(triples)
    # ... and the halt filter on the tag's (round, key) prefix keeps
    # what the triple rule keeps: earlier rounds, and the halt round up
    # to the halt key.
    halt_round, halt_key, _seq = data.draw(st.sampled_from(triples))
    halt = pack_level(halt_round, "rounds") + order_key(*halt_key)
    assert [tag[:-4] <= halt for tag in tags] == [
        round_no < halt_round or (round_no == halt_round and key <= halt_key)
        for round_no, key, _seq in triples
    ]


# -- the one helper that packs --------------------------------------------


def test_a_level_holds_up_to_two_to_the_32_and_refuses_by_name():
    assert pack_level(0, "hops") == b"\x00\x00\x00\x00"
    assert pack_level(2**32 - 1, "hops") == b"\xff\xff\xff\xff"
    with pytest.raises(
        ProgramError, match=r"^more than 2\*\*32 hops from one vertex$"
    ):
        pack_level(2**32, "hops from one vertex")
    with pytest.raises(ProgramError, match=r"2\*\*32 rounds"):
        pack_level(2**40, "rounds")


# -- the column frame -------------------------------------------------------


def _random_rows(rng):
    """Rows as the engine builds them: runs of hops sharing one params
    object, equal-but-distinct objects, ``None``, unhashable values."""
    pool = []
    for _ in range(rng.randrange(1, 6)):
        depth = rng.randrange(4)
        pool += [
            SimpleNamespace(depth=depth, edge_prop=None),
            SimpleNamespace(depth=depth, edge_prop=None),  # equal, distinct
            {"mass": rng.random()}, [depth, [depth]], None,
        ]
    levels = rng.randrange(1, 5)
    return [
        (
            f"v{rng.randrange(3000)}é"[:rng.randrange(1, 8)],
            rng.choice(pool),
            order_key(*(rng.randrange(2**32) for _ in range(levels))),
        )
        for _ in range(rng.choice((1, 2, 3, 64, 300)))
    ]


def _sharing(rows):
    """Which hops share their params object with which."""
    return [[a[1] is b[1] for b in rows] for a in rows]


def test_rows_survive_columns_and_the_wire_with_their_sharing():
    rng = random.Random(20160905)
    for _ in range(40):
        rows = _random_rows(rng)
        forward = FrontierForward.from_rows(7, 3, rows)
        assert forward.rows() == rows
        assert len(forward.handles) == len(rows)        # the hop count
        # Each distinct object of the frame once, by identity.
        assert len(forward.params) == len({id(row[1]) for row in rows})
        decoded = wire.decode(wire.encode(forward))
        assert decoded == forward
        assert decoded.rows() == rows
        assert _sharing(decoded.rows()) == _sharing(rows)


def test_no_rows_are_no_columns():
    empty = FrontierForward.from_rows(7, 0, [])
    assert empty == FrontierForward(7, 0, (), (), (), b"")
    assert wire.decode(wire.encode(empty)).rows() == []


@pytest.mark.parametrize("columns, named", [
    # zip would quietly run the shorter column's length.
    ((("a", "b"), (order_key(0),), (None,), bytes(8)), "2 handles, 1 keys"),
    ((("a",), (order_key(0), order_key(1)), (None,), bytes(4)), "2 keys"),
    ((("a", "b"), (order_key(0), order_key(1)), (None,), bytes(4)),
     "4 index bytes"),
    ((("a", "b"), (order_key(0), order_key(1)), (None,), bytes(9)),
     "9 index bytes"),
    ((("a",), (order_key(0),), (None,), pack_level(1, "x")),
     "params index 1 of 1"),
    ((("a",), (order_key(0),), (), bytes(4)), "params index 0 of 0"),
])
def test_columns_that_are_not_one_set_of_hops_are_refused_by_name(
    columns, named
):
    forward = FrontierForward(7, 1, *columns)
    # The codec does not care; the refusal is rows()'s.
    assert wire.decode(wire.encode(forward)) == forward
    with pytest.raises(
        ProgramError, match=f"^malformed frontier forward: .*{named}"
    ):
        forward.rows()
