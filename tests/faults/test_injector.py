"""The fault injector: send decisions, retries, held traffic, dedup."""

import pytest

from repro.core import LinkDown
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkFaults,
    NO_RETRY,
    NodeCrash,
    Partition,
    RetryPolicy,
)
from repro.transport import Message, MessageKind


def _msg(src="a", dst="b", time=1.0, payload=None, kind=MessageKind.SIGNAL):
    return Message(kind=kind, src=src, dst=dst, channel="ch", time=time,
                   payload=payload)


class TestOnSend:
    def test_fault_free_plan_delivers_everything(self):
        injector = FaultInjector(FaultPlan(seed=0))
        for i in range(20):
            assert injector.on_send(_msg(payload=i)) == ("deliver", 0)
        assert injector.summary() == {}

    def test_drops_consume_retry_attempts_then_deliver(self):
        plan = FaultPlan(seed=1, default=LinkFaults(drop=0.4))
        injector = FaultInjector(plan, retry_policy=RetryPolicy(
            max_attempts=50, base_delay=0.0, jitter=0.0))
        for i in range(200):
            action, __ = injector.on_send(_msg(payload=i))
            assert action in ("deliver", "duplicate", "delay", "reorder")
        counts = injector.summary()
        assert counts["fault.drops"] > 0
        assert counts["retry.attempts"] == counts["fault.drops"]
        assert "retry.giveups" not in counts

    def test_retry_exhaustion_raises_typed_link_down(self):
        plan = FaultPlan(seed=2, default=LinkFaults(drop=1.0))
        injector = FaultInjector(plan, retry_policy=NO_RETRY)
        with pytest.raises(LinkDown) as err:
            injector.on_send(_msg())
        assert err.value.src == "a"
        assert err.value.dst == "b"
        assert err.value.attempts == 1
        assert injector.summary()["retry.giveups"] == 1

    def test_excluded_kinds_bypass_the_plan(self):
        plan = FaultPlan(seed=3, default=LinkFaults(drop=1.0))
        injector = FaultInjector(plan, retry_policy=NO_RETRY)
        request = _msg(kind=MessageKind.SAFE_TIME_REQUEST)
        assert injector.on_send(request) == ("deliver", 0)

    def test_partition_counts_separately(self):
        plan = FaultPlan(seed=4, partitions=(Partition("a", "b"),))
        injector = FaultInjector(plan, retry_policy=NO_RETRY)
        with pytest.raises(LinkDown):
            injector.on_send(_msg())
        counts = injector.summary()
        assert counts["fault.partition_drops"] == 1
        assert "fault.drops" not in counts

    def test_same_seed_same_counters(self):
        def one_run():
            plan = FaultPlan(seed=5, default=LinkFaults(
                drop=0.3, duplicate=0.1, delay=0.1))
            injector = FaultInjector(plan)
            for i in range(300):
                injector.on_send(_msg(payload=i))
            return injector.summary()

        assert one_run() == one_run()


class TestCrashedNodes:
    def test_sends_become_lost(self):
        injector = FaultInjector(FaultPlan(seed=0))
        injector.mark_down("b")
        assert injector.on_send(_msg()) == ("lost", 0)
        assert injector.summary()["fault.messages_lost"] == 1
        injector.mark_up("b")
        assert injector.on_send(_msg()) == ("deliver", 0)

    def test_calls_raise(self):
        injector = FaultInjector(FaultPlan(seed=0))
        injector.mark_down("b")
        with pytest.raises(LinkDown):
            injector.check_call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))
        assert injector.summary()["fault.calls_failed"] == 1


class TestHeldTraffic:
    def test_delay_releases_after_ticks(self):
        injector = FaultInjector(FaultPlan(seed=0))
        injector.hold("b", "parcel", 2)
        assert injector.release_due("b") == []          # tick 1
        assert injector.release_due("b") == ["parcel"]  # tick 2
        assert injector.release_due("b") == []

    def test_swap_released_behind_next_send(self):
        injector = FaultInjector(FaultPlan(seed=0))
        injector.hold_swap("a", "b", "first")
        assert injector.take_swaps("a", "b") == ["first"]
        assert injector.take_swaps("a", "b") == []

    def test_orphan_swap_flushed_at_poll(self):
        injector = FaultInjector(FaultPlan(seed=0))
        injector.hold_swap("a", "b", "orphan")
        assert injector.release_due("b") == ["orphan"]

    def test_second_swap_degrades_to_delay(self):
        injector = FaultInjector(FaultPlan(seed=0))
        injector.hold_swap("a", "b", "one")
        injector.hold_swap("a", "b", "two")
        assert injector.take_swaps("a", "b") == ["one"]
        assert injector.release_due("b") == ["two"]

    def test_held_pending_and_flush(self):
        injector = FaultInjector(FaultPlan(seed=0))
        injector.hold("b", "x", 5)
        injector.hold_swap("a", "b", "y")
        assert injector.held_pending() == 2
        assert injector.held_pending("b") == 2
        assert injector.held_pending("other") == 0
        assert injector.flush() == 2
        assert injector.held_pending() == 0


class TestDuplicateSuppression:
    def test_exactly_once_semantics(self):
        injector = FaultInjector(FaultPlan(seed=0))
        message = _msg(payload="dup")
        injector.expect_duplicate("b", message.msg_id, src=message.src)
        results = [injector.suppress_duplicate("b", message)
                   for __ in range(3)]
        assert results == [True, False, False]
        assert injector.summary()["fault.duplicates_suppressed"] == 1
