"""The one service schedule: what an executor owes at which virtual
instant — scheduled crashes, periodic cuts, requested migrations — in
one ordered list that every node's ``service_bound`` reads."""

import sys
import threading

import pytest

from repro.core import ConfigurationError
from repro.distributed.system import Service, ServiceSchedule
from repro.faults import FaultPlan, NodeCrash

INF = float("inf")


def everything(instant):
    return True


def up_to(limit):
    return lambda instant: instant <= limit


def filled(*entries):
    schedule = ServiceSchedule()
    for entry in entries:
        schedule.add(*entry)
    return schedule


def test_entries_come_out_by_instant_ties_in_filing_order():
    schedule = filled((3.0, "migrate", "b"), (1.0, "crash", "a"),
                      (3.0, "cut"), (2.0, "migrate", "c"),
                      (3.0, "crash", "d"))
    assert list(schedule.take_due(everything,
                                  ("crash", "cut", "migrate"))) == [
        Service(1.0, "crash", "a"), Service(2.0, "migrate", "c"),
        Service(3.0, "migrate", "b"), Service(3.0, "cut", None),
        Service(3.0, "crash", "d")]
    assert schedule.next_instant() == INF


def test_take_due_yields_only_what_the_run_has_got_to():
    schedule = filled((1.0, "crash", "a"), (2.0, "crash", "b"),
                      (1.5, "cut"), (4.0, "crash", "c"))
    assert [entry.target for entry in
            schedule.take_due(up_to(2.0), ("crash",))] == ["a", "b"]
    # The cut is another kind, the last crash lies beyond: both stay.
    assert schedule.next_instant() == 1.5
    assert list(schedule.take_due(everything, ("crash", "cut"))) == [
        Service(1.5, "cut", None), Service(4.0, "crash", "c")]


def test_an_entry_stays_until_the_caller_asks_for_the_next():
    """Windows hold at a yielded entry's instant while the caller acts
    on it; a caller that stops asking leaves it pending."""
    schedule = filled((1.0, "crash", "a"), (2.0, "crash", "b"))
    due = schedule.take_due(everything, ("crash",))
    assert next(due).target == "a"
    assert schedule.next_instant() == 1.0
    assert next(due).target == "b"
    assert schedule.next_instant() == 2.0
    del due
    assert schedule.next_instant() == 2.0


def test_rearm_cut_replaces_the_pending_cut():
    schedule = filled((5.0, "crash", "a"))
    schedule.rearm_cut(0.0, 1.0)
    assert schedule.next_instant() == 1.0
    schedule.rearm_cut(2.5, 1.0)
    assert list(schedule.take_due(everything, ("cut",))) == [
        Service(3.5, "cut", None)]
    schedule.rearm_cut(0.0, 1.0)
    schedule.rearm_cut(0.0, None)       # no interval: no cut at all
    assert schedule.next_instant() == 5.0


def test_arm_crashes_replaces_pending_crashes_and_refuses_strangers():
    schedule = filled((9.0, "crash", "old"), (2.0, "migrate", "m"))
    plan = FaultPlan(seed=0, crashes=(NodeCrash("b", at_time=3.0),
                                      NodeCrash("a", at_time=3.0)))
    schedule.arm_crashes(plan, {"a", "b"})
    assert list(schedule.take_due(everything, ("crash", "migrate"))) == [
        Service(2.0, "migrate", "m"), Service(3.0, "crash", "a"),
        Service(3.0, "crash", "b")]
    with pytest.raises(ConfigurationError, match="ghost"):
        schedule.arm_crashes(
            FaultPlan(seed=0, crashes=(NodeCrash("ghost", at_time=1.0),)),
            {"a"})


def test_next_instant_is_inf_when_empty():
    schedule = ServiceSchedule()
    assert schedule.next_instant() == INF
    schedule.arm_crashes(None, {})
    schedule.rearm_cut(0.0, None)
    assert schedule.next_instant() == INF


def test_adds_from_other_threads_while_taking_lose_nothing():
    """``migrate_at`` files from status-listener threads while the
    coordinator takes what is due: more filers than cores, switching as
    often as the interpreter allows."""
    schedule = ServiceSchedule()
    for n in range(200):
        schedule.add(float(n), "crash", f"c{n}")
    started = threading.Event()

    def file_migrations(filer):
        started.wait(10.0)
        for n in range(500):
            schedule.add(float(n), "migrate", f"m{filer}-{n}")

    filers = [threading.Thread(target=file_migrations, args=(filer,))
              for filer in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for filer in filers:
            filer.start()
        taken = []
        for entry in schedule.take_due(everything, ("crash",)):
            started.set()
            taken.append(entry.target)
        for filer in filers:
            filer.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(filer.is_alive() for filer in filers)
    assert taken == [f"c{n}" for n in range(200)]
    migrations = [entry.target for entry in
                  schedule.take_due(everything, ("migrate", "crash"))]
    assert sorted(migrations) == sorted(
        f"m{filer}-{n}" for filer in range(4) for n in range(500))
    assert schedule.next_instant() == INF
