"""Switchpoint parsing/evaluation, sliders, imperative switches."""

import pytest

from repro.core import (
    Advance,
    FunctionComponent,
    RunLevelError,
    Simulator,
    SwitchLevel,
    SwitchpointSyntaxError,
    parse_switchpoint,
)
from repro.core.runlevel import (
    And,
    Comparison,
    LocalTimeRef,
    Or,
    SignalRef,
    SwitchpointEnvironment,
)


class TestParser:
    def test_paper_example(self):
        sp = parse_switchpoint(
            "when I2CComponent.localtime >= 67: "
            "I2CComponent -> hardwareLevel, VidCamComponent -> byteLevel")
        assert sp.condition == Comparison(LocalTimeRef("I2CComponent"), ">=", 67)
        assert sp.assignments == [("I2CComponent", "hardwareLevel"),
                                  ("VidCamComponent", "byteLevel")]

    def test_when_keyword_optional(self):
        sp = parse_switchpoint("A.localtime > 5: A -> fast")
        assert sp.assignments == [("A", "fast")]

    def test_conjunction_and_disjunction(self):
        sp = parse_switchpoint(
            "A.localtime >= 1 and (B.localtime >= 2 or C.localtime < 3): "
            "A -> x")
        assert isinstance(sp.condition, And)
        assert isinstance(sp.condition.terms[1], Or)

    def test_signal_reference(self):
        sp = parse_switchpoint("net.irq == 1: Cpu -> hardwareLevel")
        assert sp.condition == Comparison(SignalRef("irq"), "==", 1)

    def test_interface_target(self):
        sp = parse_switchpoint("A.localtime >= 0: A.bus -> word")
        assert sp.assignments == [("A.bus", "word")]

    def test_float_and_string_values(self):
        sp = parse_switchpoint("A.localtime >= 1.5: A -> x")
        assert sp.condition.value == 1.5
        sp = parse_switchpoint('net.mode == "idle": A -> x')
        assert sp.condition.value == "idle"
        sp = parse_switchpoint('when net.tag == "a:b": A -> x')
        assert sp.condition == Comparison(SignalRef("tag"), "==", "a:b")
        assert sp.assignments == [("A", "x")]

    def test_true_false_none_are_constants(self):
        """``True``/``False``/``None`` read as Python constants, so a
        switchpoint on a net holding ``True`` fires; any other bare word
        is still a string."""
        sp = parse_switchpoint("net.flag == True: A -> x")
        assert sp.condition.value is True
        assert parse_switchpoint("net.flag == False: A -> x") \
            .condition.value is False
        assert parse_switchpoint("net.flag != None: A -> x") \
            .condition.value is None
        assert parse_switchpoint("net.flag == idle: A -> x") \
            .condition.value == "idle"
        env = SwitchpointEnvironment(local_time={}.__getitem__,
                                     signal={"flag": True}.__getitem__)
        assert sp.evaluate(env)

    @pytest.mark.parametrize("bad", [
        "A.localtime >= : A -> x",
        "A.localtime 5: A -> x",
        "A.localtime >= 5",
        "A.localtime >= 5: A ->",
        "A.weird >= 5: A -> x",
        "A.localtime >= 5: A -> x garbage",
        ": A -> x",
        "A.localtime >= 5: A -> x,",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(SwitchpointSyntaxError):
            parse_switchpoint(bad)

    def test_evaluation(self):
        env = SwitchpointEnvironment(
            local_time={"A": 10.0, "B": 1.0}.__getitem__,
            signal={"irq": 1}.__getitem__)
        assert parse_switchpoint("A.localtime >= 5: A -> x").evaluate(env)
        assert not parse_switchpoint("B.localtime >= 5: A -> x").evaluate(env)
        assert parse_switchpoint(
            "B.localtime >= 5 or net.irq == 1: A -> x").evaluate(env)
        assert not parse_switchpoint(
            "B.localtime >= 5 and net.irq == 1: A -> x").evaluate(env)


def _two_level_system():
    """Two wait-looping components whose local times tick up one second at
    a time, generating an event (and a switchpoint poll) per tick."""
    from repro.core import WaitUntil

    sim = Simulator()

    def worker(comp):
        for __ in range(100):
            yield WaitUntil(comp.local_time + 1.0)

    a = sim.add(FunctionComponent("A", worker))
    b = sim.add(FunctionComponent("B", worker))
    return sim, a, b


class TestSwitchpointFiring:
    def test_fires_on_local_time(self):
        sim = Simulator()
        from repro.core import Interface
        from repro.protocols import i2c_protocol

        def chatter(comp):
            from repro.core import Transfer, WaitUntil
            for __ in range(30):
                # Block each round so local time tracks system time and the
                # switch is observed mid-run rather than at start-up.
                yield WaitUntil(comp.local_time + 10.0)
                yield Transfer("link", b"ab")

        def sink(comp):
            while True:
                from repro.core import ReceiveTransfer
                yield ReceiveTransfer("link")

        i2c = FunctionComponent("I2CComponent", chatter)
        i2c.add_interface(Interface("link", i2c_protocol(),
                                    out_port="out", level="byteLevel"))
        cam = FunctionComponent("VidCamComponent", sink)
        cam.add_interface(Interface("link", i2c_protocol(),
                                    in_port="in", level="byteLevel"))
        sim.add(i2c)
        sim.add(cam)
        sim.wire("n", i2c.port("out"), cam.port("in"))
        sim.add_switchpoint(
            "when I2CComponent.localtime >= 67: "
            "I2CComponent -> hardwareLevel, VidCamComponent -> hardwareLevel")
        sim.run()
        assert i2c.interface("link").level == "hardwareLevel"
        assert i2c.runlevel == "hardwareLevel"
        assert len(sim.switchpoints.history) == 1
        fired_at = sim.switchpoints.history[0][0]
        assert fired_at >= 67.0

    def test_once_semantics(self):
        sim, a, b = _two_level_system()
        fired = []
        sim.switchpoints.apply = lambda t, l: fired.append((t, l))
        sim.add_switchpoint("A.localtime >= 5: A -> fast")
        sim.run(until=50.0)
        assert fired == [("A", "fast")]

    def test_repeating_switchpoint(self):
        sim, a, b = _two_level_system()
        fired = []
        sim.switchpoints.apply = lambda t, l: fired.append((t, l))
        sim.add_switchpoint("A.localtime >= 5: A -> fast", once=False)
        sim.run(until=10.0)
        assert len(fired) > 1


def _register_directly(sim, text):
    sim.switchpoints.add(text)


def _register_from_run_control(sim, text):
    from repro.core.runcontrol import parse
    parse(f"[switchpoints]\n{text}\n").apply(sim)


def _register_from_control_event(sim, text, at=6.5):
    """Registered by a CONTROL event mid-run, when the condition already
    holds: the poll must run after that very event."""
    from repro.core import Event, EventKind
    from repro.core.timestamp import PRIORITY_CONTROL, Timestamp
    sim.subsystem.scheduler.schedule(Event(
        Timestamp(at, PRIORITY_CONTROL), EventKind.CONTROL,
        target=lambda event: sim.add_switchpoint(text)))


class TestSwitchpointArming:
    """The per-event poll exists only once a switchpoint does, and then
    fires at the same ``(time, dispatched)`` whichever way it came."""

    ROUTES = {
        "add_switchpoint": (lambda sim, text: sim.add_switchpoint(text),
                            (5.0, 9)),
        "manager_add": (_register_directly, (5.0, 9)),
        "run_control": (_register_from_run_control, (5.0, 9)),
        "control_event": (_register_from_control_event, (6.5, 13)),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_fires_at_the_same_event_by_every_route(self, route):
        register, expected = self.ROUTES[route]
        sim, a, b = _two_level_system()
        hooks = sim.subsystem.scheduler.post_step_hooks
        assert hooks == []          # no switchpoint, no per-event poll
        fired = []
        sim.switchpoints.apply = lambda target, level: fired.append(
            (sim.now, sim.subsystem.scheduler.dispatched))
        register(sim, "A.localtime >= 5: A -> fast")
        sim.run(until=20.0)
        assert fired == [expected]
        assert hooks == [sim._poll_switchpoints]

    def test_a_second_switchpoint_installs_nothing_more(self):
        sim, a, b = _two_level_system()
        sim.add_switchpoint("A.localtime >= 5: A -> fast")
        sim.add_switchpoint("B.localtime >= 7: B -> fast")
        assert sim.subsystem.scheduler.post_step_hooks == [
            sim._poll_switchpoints]


class TestSliderAndImperative:
    def test_slider_moves_levels(self):
        sim = Simulator()
        from repro.core import Interface
        from repro.protocols import packet_protocol

        def idle(comp):
            yield Advance(1.0)

        a = FunctionComponent("A", idle)
        a.add_interface(Interface("bus", packet_protocol(), out_port="o"))
        sim.add(a)
        slider = sim.slider(["A.bus"], ["transaction", "packet", "word"])
        assert slider.level == "transaction"
        slider.set(0)
        assert a.interface("bus").level == "transaction"
        slider.more_detail()
        assert a.interface("bus").level == "packet"
        slider.more_detail()
        slider.more_detail()   # clamps at most detailed
        assert a.interface("bus").level == "word"
        slider.less_detail()
        assert a.interface("bus").level == "packet"
        with pytest.raises(RunLevelError):
            slider.set(5)

    def test_imperative_switch_statement(self):
        sim = Simulator()
        from repro.core import Interface
        from repro.protocols import packet_protocol

        def behaviour(comp):
            yield Advance(1.0)
            yield SwitchLevel("word", target="A.bus")

        a = FunctionComponent("A", behaviour)
        a.add_interface(Interface("bus", packet_protocol(), out_port="o"))
        sim.add(a)
        sim.run()
        assert a.interface("bus").level == "word"

    def test_unknown_level_raises(self):
        sim = Simulator()
        from repro.core import Interface
        from repro.protocols import packet_protocol

        def idle(comp):
            yield Advance(1.0)

        a = FunctionComponent("A", idle)
        a.add_interface(Interface("bus", packet_protocol(), out_port="o"))
        sim.add(a)
        with pytest.raises(RunLevelError):
            sim.set_runlevel("A.bus", "nonsense")
        with pytest.raises(RunLevelError):
            sim.set_runlevel("A", "nonsense")
