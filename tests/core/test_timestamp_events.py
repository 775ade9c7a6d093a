"""Timestamp ordering and event-queue determinism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    FOREVER,
    PRIORITY_CONTROL,
    PRIORITY_SIGNAL,
    PRIORITY_WAKE,
    ZERO,
    CausalityError,
    Event,
    EventKind,
    EventQueue,
    Timestamp,
)


INF = float("inf")


def _evt(time, priority=PRIORITY_SIGNAL, payload=None):
    return Event(Timestamp(time, priority), EventKind.CONTROL,
                 target=lambda e: None, payload=payload)


class TestTimestamp:
    def test_time_dominates_ordering(self):
        assert Timestamp(1.0, 99, 99) < Timestamp(2.0, 0, 0)

    def test_priority_breaks_time_ties(self):
        assert Timestamp(1.0, PRIORITY_CONTROL) < Timestamp(1.0, PRIORITY_WAKE)

    def test_seq_breaks_remaining_ties(self):
        assert Timestamp(1.0, 5, 1) < Timestamp(1.0, 5, 2)

    def test_zero_before_everything(self):
        assert ZERO <= Timestamp(0.0, PRIORITY_CONTROL, 0)

    def test_forever_after_everything(self):
        assert Timestamp(1e30, PRIORITY_WAKE, 10**9) < FOREVER

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=1000)), min_size=2, max_size=50))
    def test_total_order_is_sortable(self, triples):
        stamps = [Timestamp(*t) for t in triples]
        ordered = sorted(stamps)
        for left, right in zip(ordered, ordered[1:]):
            assert left <= right


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        for t in [5.0, 1.0, 3.0]:
            q.push(_evt(t))
        assert [q.pop_ready(INF).ts.time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_equal_times_pop_in_priority_then_push_order(self):
        q = EventQueue()
        q.push(_evt(1.0, PRIORITY_WAKE, "wake"))
        q.push(_evt(1.0, PRIORITY_SIGNAL, "sig-a"))
        q.push(_evt(1.0, PRIORITY_SIGNAL, "sig-b"))
        q.push(_evt(1.0, PRIORITY_CONTROL, "ctl"))
        assert [q.pop_ready(INF).payload for _ in range(4)] == \
            ["ctl", "sig-a", "sig-b", "wake"]

    def test_push_into_past_raises(self):
        q = EventQueue()
        with pytest.raises(CausalityError):
            q.push(_evt(1.0), now=2.0)

    def test_next_time(self):
        q = EventQueue()
        assert q.next_time() == float("inf")
        q.push(_evt(4.0))
        q.push(_evt(2.0))
        assert q.next_time() == 2.0

    def test_peek_does_not_consume(self):
        q = EventQueue()
        q.push(_evt(1.0, payload="x"))
        assert q.peek().payload == "x"
        assert len(q) == 1

    def test_snapshot_restore_roundtrip(self):
        q = EventQueue()
        for t in [3.0, 1.0, 2.0]:
            q.push(_evt(t))
        snap = q.snapshot()
        assert [e.ts.time for e in snap] == [1.0, 2.0, 3.0]
        q.pop_ready(INF)
        q.pop_ready(INF)
        q.restore(snap)
        assert [q.pop_ready(INF).ts.time for _ in range(3)] == [1.0, 2.0, 3.0]

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                    min_size=1, max_size=60))
    def test_pop_sequence_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(_evt(t))
        popped = [q.pop_ready(INF).ts.time for _ in range(len(times))]
        assert popped == sorted(times)

    def test_snapshot_is_delivery_order(self):
        q = EventQueue()
        for t in [9.0, 7.0]:
            q.push(_evt(t))
        assert [e.ts.time for e in q.snapshot()] == [7.0, 9.0]
        assert len(q) == 2
