"""``is_immutable`` decides, per message and per checkpointed value,
whether a defensive copy may be skipped.  It is written as a loop that
settles scalar items without a call; the recursive ``all(<genexpr>)``
form it replaced is kept here as the reference, and both must give the
same answer for every row."""

import enum
from collections import namedtuple

import pytest

from repro.core import fastcopy
from repro.core.fastcopy import is_immutable, smart_copy


def reference(obj, _depth=fastcopy._MAX_DEPTH):
    if type(obj) in fastcopy._ATOMIC:
        return True
    if isinstance(obj, enum.Enum):
        return True
    if type(obj) in fastcopy._CONTAINERS:
        if _depth <= 0:
            return False
        return all(reference(item, _depth - 1) for item in obj)
    return False


class Colour(enum.Enum):
    RED = 1


class Pair(tuple, enum.Enum):
    AB = ("a", "b")


class Flags(enum.IntFlag):
    X = 1


class MyInt(int):
    pass


class MyTuple(tuple):
    pass


Point = namedtuple("Point", "x y")


def nested(depth, leaf=1):
    value = leaf
    for __ in range(depth):
        value = (value,)
    return value


ROWS = [
    (None, True), (True, True), (3, True), (2.5, True), (1j, True),
    ("s", True), (b"b", True),
    (bytearray(b"b"), False), ([1], False), ({1}, False), ({}, False),
    (object(), False),
    # word payloads: (subsystem, net, value)
    (("engine", "clk", 1), True),
    (("engine", "bus", ("nested", 1, None)), True),
    (("engine", "bus", ("nested", [1], None)), False),
    (("engine", "bus", {"k": 1}), False),
    ((), True), (frozenset(), True),
    (frozenset({1, "a", (2, 3)}), True),
    ((frozenset({(1, (2,))}),), True),
    # enums, whatever they mix in
    (Colour.RED, True), (Pair.AB, True), (Flags.X, True),
    ((Colour.RED, (Flags.X,)), True),
    # subclasses are not provably immutable: exact types only
    (MyInt(3), False), ((MyInt(3),), False), (MyTuple((1,)), False),
    (Point(1, 2), False), ((1, Point(1, 2)), False),
    # the depth limit: containers nested deeper than it are refused
    (nested(fastcopy._MAX_DEPTH), True),
    (nested(fastcopy._MAX_DEPTH + 1), False),
    (nested(fastcopy._MAX_DEPTH + 3), False),
    (nested(fastcopy._MAX_DEPTH, leaf=[]), False),
    (nested(fastcopy._MAX_DEPTH - 1, leaf=frozenset({1})), True),
    (nested(fastcopy._MAX_DEPTH, leaf=frozenset({1})), False),
]


@pytest.mark.parametrize("value, expected", ROWS, ids=lambda v: repr(v)[:40])
def test_is_immutable_matches_the_recursive_reference(value, expected):
    assert is_immutable(value) is expected
    assert reference(value) is expected


def test_smart_copy_shares_what_is_immutable_and_copies_the_rest():
    for value, expected in ROWS:
        if expected:
            assert smart_copy(value) is value
    inner = [1]
    value = ("engine", "bus", ("nested", inner))
    copy = smart_copy(value)
    assert copy == value and copy[2][1] is not inner
