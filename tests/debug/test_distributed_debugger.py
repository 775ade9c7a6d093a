"""Debugging the system as a whole: the one debugger over a CoSimulation."""

import pytest

from repro.core import Advance, CheckpointError, FunctionComponent, Receive, Send
from repro.debug import Debugger, DebuggerError
from repro.distributed import CoSimulation

from . import test_debugger


def build(between=None):
    """The two-node producer/consumer pair; ``between(cosim)`` runs after
    ``sa`` is added and before ``sb`` is."""
    cosim = CoSimulation()
    ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
    if between is not None:
        between(cosim)
    ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")

    def produce(comp):
        for index in range(8):
            yield Advance(1.0)
            yield Send("out", index)

    def consume(comp):
        comp.got = []
        for __ in range(8):
            t, v = yield Receive("in")
            comp.got.append(v)

    p = FunctionComponent("p", produce, ports={"out": "out"})
    c = FunctionComponent("c", consume, ports={"in": "in"})
    ss_a.add(p)
    ss_b.add(c)
    channel = cosim.connect(ss_a, ss_b)
    channel.split_net(ss_a.wire("w", p.port("out")),
                      ss_b.wire("w", c.port("in")))
    return cosim, c


class TestGlobalBreakpoints:
    def test_break_at_global_time(self):
        """``break_at`` is global time: the slowest subsystem's."""
        cosim, consumer = build()
        debugger = Debugger(cosim)
        bp = debugger.break_at(3.0)
        reason = debugger.run()
        assert reason.breakpoint is bp
        assert reason.time == cosim.global_time() >= 3.0
        assert debugger.run().finished   # no breakpoints left: completes

    def test_break_on_signal_across_nodes(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        bp = debugger.break_on_signal("w", value=3)
        reason = debugger.run()
        assert not reason.finished
        assert reason.event.payload == 3
        # The producer runs in a window of its own: it may break before
        # the consumer has consumed anything, never after it passed 3.
        assert all(v <= 3 for v in consumer.got)
        resumed = debugger.run()
        assert resumed.finished
        assert consumer.got == list(range(8))

    def test_break_at_subsystem_time(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.break_at_subsystem_time("sb", 4.0)
        reason = debugger.run()
        assert not reason.finished
        assert cosim.subsystem("sb").now >= 4.0

    def test_break_at_component_local_time(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.break_at_local_time("c", 2.0)
        reason = debugger.run()
        assert not reason.finished
        assert cosim.component("c").local_time >= 2.0

    def test_break_when_predicate(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.break_when(lambda cs: len(cs.component("c").got) >= 5,
                            description="five consumed")
        reason = debugger.run()
        assert not reason.finished
        assert len(consumer.got) >= 5

    def test_delete(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        bp = debugger.break_on_signal("w")
        debugger.delete(bp.bp_id)
        assert debugger.run().finished
        with pytest.raises(DebuggerError):
            debugger.delete(bp.bp_id)


class TestGlobalInspection:
    def test_where_spans_nodes(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.break_on_signal("w", value=2)
        debugger.run()
        text = debugger.where()
        assert "sa @ na" in text
        assert "sb @ nb" in text
        assert "p:" in text and "c:" in text
        assert "__channel" not in text

    def test_inspect_across_subsystems(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.break_on_signal("w", value=2)
        debugger.run()
        # The break fires on the first delivery of value 2 anywhere on the
        # split net — possibly on the sender-side hidden port, before the
        # consumer itself has received it (or, the pipeline being one-way,
        # anything at all: the producer's window does not wait for it).
        assert all(v <= 2 for v in debugger.inspect("c")["got"])

    def test_watch_both_halves(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.watch("w")
        debugger.run()
        # the source half posts, the destination half injects: both logged
        sides = {record.net for record in debugger.watch_log}
        assert sides == {"sa:w", "sb:w"}
        with pytest.raises(DebuggerError):
            debugger.watch("nonexistent")


class TestDistributedTimeTravel:
    def test_snapshot_and_rewind(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.break_on_signal("w", value=2)
        debugger.run()
        snap = cosim.snapshot()
        assert debugger.run().finished
        assert consumer.got == list(range(8))
        rewound_to = debugger.rewind(snap)
        assert len(consumer.got) <= 3
        assert debugger.run().finished
        assert consumer.got == list(range(8))

    def test_rewind_without_snapshot(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        with pytest.raises(CheckpointError):
            debugger.rewind()

    def test_rewind_unknown_id(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        with pytest.raises(CheckpointError):
            debugger.rewind("snap-99999")

    def test_rewind_defaults_to_the_latest_snapshot(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.break_at(2.0)
        debugger.run()
        cosim.snapshot()
        debugger.break_at(5.0)
        debugger.run()
        cosim.snapshot()
        seen = list(consumer.got)
        assert debugger.run().finished
        assert debugger.rewind() >= 5.0         # the later cut, not 2.0
        assert consumer.got == seen
        assert debugger.run().finished
        assert consumer.got == list(range(8))


class TestSteppingAndTrace:
    def _dispatched(self, cosim):
        return sum(ss.scheduler.dispatched for ss in cosim.subsystems.values())

    def test_step_many(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        before = self._dispatched(cosim)
        reason = debugger.step(3)
        assert reason.finished and reason.event is not None
        assert self._dispatched(cosim) == before + 3

    def test_step_ignores_breakpoints(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.break_on_signal("w")
        before = self._dispatched(cosim)
        debugger.step(4)
        assert self._dispatched(cosim) == before + 4

    def test_trace_and_backtrace(self):
        cosim, consumer = build()
        debugger = Debugger(cosim)
        debugger.trace(limit=5)
        assert debugger.run().finished
        trace = debugger.backtrace()
        assert len(trace) == 5                    # ring buffer trimmed
        assert len(debugger.trace_log) == 5


class TestHooksInstalledAtRun:
    def test_a_subsystem_added_after_the_debugger_still_halts(self):
        made = []
        cosim, consumer = build(between=lambda cosim: made.append(
            Debugger(cosim)))
        debugger, = made
        debugger.break_at_local_time("c", 3.0)
        reason = debugger.run()
        assert not reason.finished
        assert consumer.got == [0, 1, 2]


def _single_host():
    sim, *_ = test_debugger.build()
    sim.add_switchpoint("when counter.localtime >= 9: counter -> fast")
    return sim


def _two_nodes():
    cosim, __ = build()
    cosim.add_switchpoint("when c.localtime >= 0: c -> fast")
    return cosim


@pytest.mark.parametrize("make", [_single_host, _two_nodes],
                         ids=["simulator", "cosimulation"])
def test_a_debugger_without_breakpoints_does_not_change_the_run(make):
    """An observer must not move the run: a switchpoint true at start
    fires at t=0 under the debugger too, and the report is the same."""
    plain, debugged = make(), make()
    plain.run()
    assert Debugger(debugged).run().finished
    assert debugged.switchpoints.history == plain.switchpoints.history
    assert debugged.switchpoints.history[0][0] == 0.0
    assert debugged.report().to_json(include_trace=True) == \
        plain.report().to_json(include_trace=True)
