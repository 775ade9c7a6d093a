"""Scheduler mechanics and the remaining process commands."""

import pytest

from repro.core import (
    Advance,
    CausalityError,
    Event,
    EventKind,
    FunctionComponent,
    PortDirection,
    ProcessComponent,
    Receive,
    SaveCheckpoint,
    Send,
    Simulator,
    Subsystem,
    SwitchLevel,
    Timestamp,
)
from repro.observability import Telemetry, TraceKind
from repro.observability.flight import STRIDE

INF = float("inf")


def idle(comp):
    yield Advance(1.0)


class TestSchedulerMechanics:
    def _loaded_subsystem(self):
        subsystem = Subsystem("ss")
        fired = []

        def make(tag):
            def control(event):
                fired.append((tag, event.ts.time))
            return control

        for time, tag in [(3.0, "c"), (1.0, "a"), (2.0, "b")]:
            subsystem.scheduler.schedule(
                Event(Timestamp(time), EventKind.CONTROL, target=make(tag)))
        return subsystem, fired

    def test_control_events_dispatch_in_order(self):
        subsystem, fired = self._loaded_subsystem()
        subsystem.run()
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert subsystem.scheduler.dispatched == 3

    def test_max_events(self):
        subsystem, fired = self._loaded_subsystem()
        subsystem.run(max_events=2)
        assert len(fired) == 2

    def test_until_bound_inclusive(self):
        subsystem, fired = self._loaded_subsystem()
        subsystem.run(until=2.0)
        assert [t for __, t in fired] == [1.0, 2.0]

    def test_callable_horizon_reevaluated_per_event(self):
        """A horizon that collapses after the first dispatch stops the
        run immediately — the echo-bound mechanism in miniature."""
        subsystem, fired = self._loaded_subsystem()
        state = {"limit": 10.0}

        def horizon():
            return state["limit"]

        def clamp(event):
            state["limit"] = event.ts.time     # no further progress

        subsystem.scheduler.schedule(
            Event(Timestamp(0.5), EventKind.CONTROL, target=clamp))
        count = subsystem.run(horizon=horizon)
        assert count == 1                      # only the clamp ran
        assert subsystem.scheduler.stalls == 1

    def test_scheduling_into_past_raises(self):
        subsystem, __ = self._loaded_subsystem()
        subsystem.run()
        with pytest.raises(CausalityError):
            subsystem.scheduler.schedule(
                Event(Timestamp(0.5), EventKind.CONTROL, target=lambda e: None))

    def test_post_step_hooks_see_each_event(self):
        subsystem, __ = self._loaded_subsystem()
        seen = []
        subsystem.scheduler.post_step_hooks.append(
            lambda event: seen.append(event.ts.time))
        subsystem.run()
        assert seen == [1.0, 2.0, 3.0]


def _reference_run(times, until, horizon, max_events):
    """The run contract over a plain sorted list (a constant horizon):
    ``(count, now, stalls, events left, fired tags)``."""
    pending = sorted(enumerate(times), key=lambda item: item[1])
    bound = min(until, horizon)
    cap = len(pending) if max_events is None else max_events
    now, fired = 0.0, []
    while pending and pending[0][1] <= bound and len(fired) < cap:
        tag, now = pending.pop(0)
        fired.append(tag)
    # Whatever stopped the run — bound, cap or an empty queue — it is a
    # stall iff the head is parked behind the horizon with ``until`` open.
    stalled = (bool(pending) and bound < pending[0][1] <= until
               and horizon < until)
    return len(fired), now, int(stalled), len(pending), fired


def _tagged_subsystem(times, telemetry=None):
    """A subsystem with one CONTROL event per entry of ``times``, each
    appending its index to the returned ``fired`` list."""
    subsystem = Subsystem("ss")
    if telemetry is not None:
        subsystem.attach_telemetry(telemetry)
    fired = []
    for tag, time in enumerate(times):
        subsystem.scheduler.schedule(Event(
            Timestamp(time), EventKind.CONTROL,
            target=lambda event, tag=tag: fired.append(tag)))
    return subsystem, fired


class TestRunContract:
    """Every argument shape of ``run`` against the reference interpreter,
    on whichever event-queue backend is live."""

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("max_events", [None, 0, 1, 2, 5, -1])
    @pytest.mark.parametrize("as_callable", [False, True])
    @pytest.mark.parametrize("horizon", [INF, 2.0, 0.5, 2.5])
    @pytest.mark.parametrize("until", [INF, 2.0, 0.5])
    @pytest.mark.parametrize("times", [[], [1.0, 2.0, 3.0], [1.0, 1.0, 5.0]])
    def test_run_matches_reference(self, times, until, horizon,
                                   as_callable, max_events, traced):
        # The metrics gate picks the traced / untraced dispatch branch;
        # the flight recorder stays on either way.
        telemetry = Telemetry(enabled=traced)
        subsystem, fired = _tagged_subsystem(times, telemetry)
        scheduler = subsystem.scheduler
        count = scheduler.run(
            until, horizon=(lambda: horizon) if as_callable else horizon,
            max_events=max_events)
        want_count, want_now, want_stalls, want_left, want_fired = \
            _reference_run(times, until, horizon, max_events)
        assert (count, scheduler.now, scheduler.stalls,
                scheduler.dispatched, len(scheduler.queue), fired,
                telemetry.flight.dispatch_seq) == (
            want_count, want_now, want_stalls,
            want_count, want_left, want_fired, want_count)

    def test_control_handler_restores_checkpoint_mid_run(self):
        """A rollback fired from inside a dispatch swaps the queue's
        contents under the running loop, which carries on from the
        restored queue."""
        subsystem, fired = _tagged_subsystem([1.0, 2.0, 3.0])
        rolled_back = []

        def rollback(event):
            if not rolled_back:
                rolled_back.append(event.time)
                subsystem.restore_checkpoint(cid)

        subsystem.scheduler.schedule(
            Event(Timestamp(2.5), EventKind.CONTROL, target=rollback))
        cid = subsystem.request_checkpoint()
        count = subsystem.run()
        assert fired == [0, 1, 0, 1, 2]
        assert count == 7                       # 3 before the rollback + 4
        # Rewound to 0 with the image; then the rollback event itself + 4.
        assert subsystem.scheduler.dispatched == 5
        assert subsystem.scheduler.now == 3.0
        assert not subsystem.scheduler.queue


class TestStep:
    def test_steps_tick_the_flight_recorder(self):
        telemetry = Telemetry()
        steps = 2 * STRIDE + 5
        subsystem, __ = _tagged_subsystem(
            [float(n) for n in range(steps)], telemetry)
        for __ in range(steps):
            assert subsystem.scheduler.run(max_events=1) == 1
        flight = telemetry.flight
        assert flight.dispatch_seq == steps
        assert [r.seq for r in flight
                if r.kind == TraceKind.DISPATCH] \
            == [STRIDE, 2 * STRIDE]


class TestSaveCheckpointCommand:
    def test_component_requests_checkpoint(self):
        """A behaviour saves a checkpoint right before risky work —
        imperative checkpointing from inside the source."""
        sim = Simulator()

        class Careful(ProcessComponent):
            def __init__(self, name):
                super().__init__(name)
                self.progress = []
                self.add_port("in", PortDirection.IN)

            def run(self):
                t, v = yield Receive("in")
                self.progress.append(v)
                yield SaveCheckpoint(label="before-risky")
                t, v = yield Receive("in")
                self.progress.append(v)

        def feeder(comp):
            for value in (1, 2):
                yield Advance(1.0)
                yield Send("out", value)

        careful = sim.add(Careful("careful"))
        feed = sim.add(FunctionComponent("feed", feeder,
                                         ports={"out": "out"}))
        sim.wire("w", feed.port("out"), careful.port("in"))
        sim.run()
        store = sim.subsystem.checkpoints
        assert len(store) == 1
        cid = store.latest()
        assert store.image(cid).label == "before-risky"
        sim.restore(cid)
        assert careful.progress == [1]
        sim.run()
        assert careful.progress == [1, 2]


class TestSwitchLevelCommand:
    def test_self_target(self):
        from repro.core import Interface
        from repro.protocols import packet_protocol
        sim = Simulator()

        class Switcher(ProcessComponent):
            def __init__(self, name):
                super().__init__(name)
                self.add_interface(Interface("bus", packet_protocol(),
                                             out_port="o"))

            def run(self):
                yield Advance(1.0)
                yield SwitchLevel("word")      # target=None: myself

        switcher = sim.add(Switcher("sw"))
        sim.run()
        assert switcher.runlevel == "word"
        assert switcher.interface("bus").level == "word"

    def test_switch_suppressed_during_replay(self):
        """Restoring replays behaviour with side effects suppressed; the
        level at the checkpoint comes from the component image, not from
        re-executing the switch."""
        from repro.core import Interface, WaitUntil
        from repro.protocols import packet_protocol
        sim = Simulator()

        class Switcher(ProcessComponent):
            def __init__(self, name):
                super().__init__(name)
                self.add_interface(Interface("bus", packet_protocol(),
                                             out_port="o"))

            def run(self):
                yield WaitUntil(1.0)
                yield SwitchLevel("word", target="sw.bus")
                yield WaitUntil(5.0)

        switcher = sim.add(Switcher("sw"))
        sim.run(until=2.0)
        assert switcher.interface("bus").level == "word"
        cid = sim.checkpoint()
        switcher.interface("bus").set_level("transaction")  # out-of-band
        sim.restore(cid)
        assert switcher.interface("bus").level == "word"
        sim.run()
        assert switcher.finished


class TestDispatchedCounter:
    """A lit run settles ``scheduler.dispatched`` once per ``run()``
    call, on the way out — the figure must still be the events that
    ran, whatever ended the call."""

    def _lit(self, times, handler=lambda event: None):
        subsystem = Subsystem("ss")
        telemetry = Telemetry()
        subsystem.attach_telemetry(telemetry)
        for time in times:
            subsystem.scheduler.schedule(
                Event(Timestamp(time), EventKind.CONTROL, target=handler))
        return subsystem, telemetry.registry.counters

    def test_counts_every_call_and_matches_the_scheduler(self):
        subsystem, counters = self._lit([1.0, 2.0, 3.0])
        subsystem.run(max_events=2)
        assert counters["scheduler.dispatched"].value == 2
        subsystem.run()
        assert counters["scheduler.dispatched"].value == 3 \
            == subsystem.scheduler.dispatched

    def test_a_call_that_dispatches_nothing_creates_no_counter(self):
        subsystem, counters = self._lit([5.0])
        subsystem.run(until=1.0)
        assert "scheduler.dispatched" not in counters

    def test_a_raising_handler_is_not_counted_but_its_predecessors_are(self):
        def handler(event):
            if event.time == 2.0:
                raise RuntimeError("boom")

        subsystem, counters = self._lit([1.0, 2.0, 3.0], handler)
        with pytest.raises(RuntimeError):
            subsystem.run()
        assert counters["scheduler.dispatched"].value == 1 \
            == subsystem.scheduler.dispatched

    def test_a_raising_hook_leaves_its_event_counted(self):
        subsystem, counters = self._lit([1.0, 2.0])

        def hook(event):
            raise RuntimeError("boom")

        subsystem.scheduler.post_step_hooks.append(hook)
        with pytest.raises(RuntimeError):
            subsystem.run()
        assert counters["scheduler.dispatched"].value == 1 \
            == subsystem.scheduler.dispatched
