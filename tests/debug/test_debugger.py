"""The debugger: breakpoints, stepping, watchpoints, time travel."""

import pytest

from repro.core import (
    Advance,
    CheckpointError,
    FunctionComponent,
    PortDirection,
    ProcessComponent,
    Receive,
    Send,
    Simulator,
)
from repro.debug import Debugger, DebuggerError


class Counter(ProcessComponent):
    def __init__(self, name, count=10):
        super().__init__(name)
        self.count = count
        self.total = 0
        self.add_port("out", PortDirection.OUT)

    def run(self):
        for index in range(self.count):
            yield Advance(1.0)
            self.total += index
            yield Send("out", index)


def build():
    sim = Simulator()
    counter = sim.add(Counter("counter"))

    def sink(comp):
        comp.seen = []
        while True:
            t, v = yield Receive("in")
            comp.seen.append(v)

    collector = sim.add(FunctionComponent("sink", sink, ports={"in": "in"}))
    sim.wire("bus", counter.port("out"), collector.port("in"))
    return sim, counter, collector


class TestBreakpoints:
    def test_break_at_time(self):
        sim, *_ = build()
        debugger = Debugger(sim)
        bp = debugger.break_at(4.0)
        reason = debugger.run()
        assert not reason.finished
        assert reason.breakpoint is bp
        assert sim.now >= 4.0
        assert bp.hits == 1

    def test_continue_to_completion(self):
        sim, counter, collector = build()
        debugger = Debugger(sim)
        debugger.break_at(4.0)
        debugger.run()
        reason = debugger.run()
        assert reason.finished
        assert collector.seen == list(range(10))

    def test_break_on_signal_value(self):
        sim, __, collector = build()
        debugger = Debugger(sim)
        debugger.break_on_signal("bus", value=5)
        reason = debugger.run()
        assert not reason.finished
        assert reason.event.payload == 5
        assert sim.now == 6.0       # value 5 is delivered at t=6

    def test_break_on_any_signal_change(self):
        sim, *_ = build()
        debugger = Debugger(sim)
        debugger.break_on_signal("bus")
        reason = debugger.run()
        assert not reason.finished
        assert reason.event.payload == 0      # the first delivery

    def test_break_on_local_time_sees_run_ahead(self):
        """The counter runs ahead to local t=10 at start; a local-time
        breakpoint fires long before system time gets there."""
        sim, counter, __ = build()
        debugger = Debugger(sim)
        debugger.break_at_local_time("counter", 9.0)
        reason = debugger.run()
        assert not reason.finished
        assert counter.local_time >= 9.0
        assert sim.now < 9.0         # two-level time, visible

    def test_break_when_predicate(self):
        sim, counter, __ = build()
        debugger = Debugger(sim)
        debugger.break_when(lambda s: s.component("counter").total > 20,
                            description="total>20")
        reason = debugger.run()
        assert not reason.finished
        assert counter.total > 20

    def test_repeating_breakpoint(self):
        sim, *_ = build()
        debugger = Debugger(sim)
        bp = debugger.break_on_signal("bus", once=False)
        hits = 0
        while not debugger.run().finished:
            hits += 1
        assert hits == 10
        assert bp.hits == 10

    def test_delete_breakpoint(self):
        sim, *_ = build()
        debugger = Debugger(sim)
        bp = debugger.break_at(2.0)
        debugger.delete(bp.bp_id)
        assert debugger.run().finished
        with pytest.raises(DebuggerError):
            debugger.delete(bp.bp_id)

    def test_run_until_bound(self):
        sim, *_ = build()
        debugger = Debugger(sim)
        reason = debugger.run(until=3.0)
        assert reason.finished
        assert sim.now <= 3.0


class TestSteppingAndInspection:
    def test_single_step(self):
        sim, *_ = build()
        debugger = Debugger(sim)
        before = sim.subsystem.scheduler.dispatched
        debugger.step()
        assert sim.subsystem.scheduler.dispatched == before + 1

    def test_step_many(self):
        sim, __, collector = build()
        debugger = Debugger(sim)
        debugger.step(3)
        assert collector.seen == [0, 1, 2]

    def test_where_reports_components(self):
        sim, *_ = build()
        debugger = Debugger(sim)
        debugger.step(2)
        text = debugger.where()
        assert "counter" in text and "sink" in text
        assert "finished" in text or "blocked" in text

    def test_inspect_component_state(self):
        sim, counter, __ = build()
        debugger = Debugger(sim)
        debugger.run(until=3.0)
        state = debugger.inspect("counter")
        assert state["total"] == sum(range(10))   # ran ahead at start
        assert state["__finished__"] is True

    def test_trace_and_backtrace(self):
        sim, *_ = build()
        debugger = Debugger(sim)
        debugger.trace(limit=5)
        debugger.run()
        trace = debugger.backtrace()
        assert len(trace) == 5                    # ring buffer trimmed
        assert all("signal" in line for line in trace)


class TestWatchAndRewind:
    def test_watchpoint_logs_changes(self):
        sim, *_ = build()
        debugger = Debugger(sim)
        debugger.watch("bus")
        debugger.run()
        assert [record.value for record in debugger.watch_log] == \
            list(range(10))
        assert debugger.watch_log[0].time == 1.0

    def test_rewind_to_snapshot(self):
        sim, __, collector = build()
        debugger = Debugger(sim)
        debugger.run(until=3.0)
        snap = sim.checkpoint("at-3")
        debugger.run()
        assert len(collector.seen) == 10
        assert debugger.rewind(snap) == 3.0
        assert len(collector.seen) == 3
        debugger.run()
        assert len(collector.seen) == 10

    def test_rewind_without_snapshot_raises(self):
        sim, *_ = build()
        with pytest.raises(CheckpointError):
            Debugger(sim).rewind()

    def test_rewind_defaults_to_latest(self):
        sim, __, collector = build()
        debugger = Debugger(sim)
        debugger.run(until=2.0)
        sim.checkpoint()
        debugger.run(until=5.0)
        sim.checkpoint()
        debugger.run()
        debugger.rewind()
        assert len(collector.seen) == 5
