"""Edge cases of the construction APIs: wiring mistakes, lookups,
subsystem and simulator facade behaviour, sync tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Advance,
    ConfigurationError,
    ConsistencyViolation,
    FunctionComponent,
    Net,
    Port,
    PortDirection,
    Simulator,
    Subsystem,
    SyncPolicy,
    SyncTable,
)


def idle(comp):
    yield Advance(1.0)


class TestWiringErrors:
    def test_duplicate_port(self):
        comp = FunctionComponent("c", idle)
        comp.add_port("p")
        with pytest.raises(ConfigurationError):
            comp.add_port("p")

    def test_unknown_port_lookup(self):
        comp = FunctionComponent("c", idle)
        with pytest.raises(ConfigurationError):
            comp.port("ghost")

    def test_port_single_net(self):
        comp = FunctionComponent("c", idle)
        port = comp.add_port("p")
        Net("n1").connect(port)
        with pytest.raises(ConfigurationError):
            Net("n2").connect(port)

    def test_net_reconnect_same_is_idempotent(self):
        comp = FunctionComponent("c", idle)
        port = comp.add_port("p")
        net = Net("n")
        net.connect(port)
        net.connect(port)
        assert net.ports.count(port) == 1

    def test_negative_net_delay(self):
        with pytest.raises(ConfigurationError):
            Net("n", delay=-1.0)

    def test_drive_unwired_port(self):
        comp = FunctionComponent("c", idle)
        port = comp.add_port("p", PortDirection.OUT)
        with pytest.raises(ConfigurationError):
            port.drive(1, 0.0)

    def test_input_port_cannot_drive(self):
        comp = FunctionComponent("c", idle)
        port = comp.add_port("p", PortDirection.IN)
        Net("n").connect(port)
        with pytest.raises(ConfigurationError):
            port.drive(1, 0.0)

    def test_output_port_cannot_receive(self):
        comp = FunctionComponent("c", idle)
        port = comp.add_port("p", PortDirection.OUT)
        with pytest.raises(ConfigurationError):
            port.deliver(0.0, 1)

    def test_post_on_unregistered_net(self):
        comp = FunctionComponent("c", idle)
        port = comp.add_port("p", PortDirection.OUT)
        net = Net("n")
        net.connect(port)
        with pytest.raises(ConfigurationError):
            net.post(1, 0.0)


class TestSubsystemApi:
    def test_duplicate_component(self):
        subsystem = Subsystem("ss")
        subsystem.add(FunctionComponent("c", idle))
        with pytest.raises(ConfigurationError):
            subsystem.add(FunctionComponent("c", idle))

    def test_component_cannot_join_two_subsystems(self):
        component = FunctionComponent("c", idle)
        Subsystem("a").add(component)
        with pytest.raises(ConfigurationError):
            Subsystem("b").add(component)

    def test_duplicate_net(self):
        subsystem = Subsystem("ss")
        subsystem.add_net(Net("n"))
        with pytest.raises(ConfigurationError):
            subsystem.add_net(Net("n"))

    def test_lookups(self):
        subsystem = Subsystem("ss")
        with pytest.raises(ConfigurationError):
            subsystem.component("ghost")
        with pytest.raises(ConfigurationError):
            subsystem.net("ghost")

    def test_idle_and_next_event(self):
        sim = Simulator()
        assert not sim.subsystem.scheduler.queue
        assert sim.subsystem.next_event_time() == float("inf")


class TestSimulatorFacade:
    def test_single_event_runs_then_none(self):
        sim = Simulator()

        def two_wakes(comp):
            from repro.core import WaitUntil
            yield WaitUntil(1.0)
            yield WaitUntil(2.0)

        sim.add(FunctionComponent("c", two_wakes))
        assert sim.run(max_events=1) == 1
        assert sim.run(max_events=1) == 1
        assert sim.run(max_events=1) == 0

    def test_auto_checkpoint_validates_interval(self):
        from repro.core import SimulationError
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.auto_checkpoint(0)

    def test_recovery_gives_up_after_max_rollbacks(self):
        """A system that violates consistency forever must terminate with
        an error, not loop."""
        from repro.core import SimulationError
        from repro.core.events import Event, EventKind
        from repro.core.timestamp import Timestamp

        sim = Simulator()
        sim.add(FunctionComponent("c", idle))

        def always_violate(event):
            raise ConsistencyViolation("synthetic", violation_time=0.0)

        sim.subsystem.scheduler.schedule(
            Event(Timestamp(0.5), EventKind.CONTROL, target=always_violate))
        with pytest.raises(SimulationError):
            sim.run_with_recovery(max_rollbacks=3)
        assert sim.recoveries == 4      # initial try + 3 retries

    def test_signal_env_for_switchpoints(self):
        sim = Simulator()

        def pulse(comp):
            from repro.core import Send
            yield Advance(1.0)
            yield Send("out", 42)

        def sink(comp):
            from repro.core import Receive
            yield Receive("in")

        p = sim.add(FunctionComponent("p", pulse, ports={"out": "out"}))
        c = sim.add(FunctionComponent("c", sink, ports={"in": "in"}))
        sim.wire("sig", p.port("out"), c.port("in"))
        sim.add_switchpoint("when net.sig == 42: p -> default")
        sim.run()
        assert len(sim.switchpoints.history) == 1


class TestSyncTable:
    def test_static_policy_never_raises(self):
        table = SyncTable(policy=SyncPolicy.STATIC)
        table.record_access(0x10, 5.0)
        table.check_external_write(0x10, 1.0)     # no-op under STATIC

    def test_optimistic_detection_order(self):
        table = SyncTable(policy=SyncPolicy.OPTIMISTIC, owner="cpu")
        table.record_access(0x10, 5.0)
        table.check_external_write(0x10, 6.0)     # later write: fine
        with pytest.raises(ConsistencyViolation) as info:
            table.check_external_write(0x10, 4.0)
        assert info.value.component == "cpu"
        assert info.value.address == 0x10
        assert table.violations

    def test_marked_addresses_exempt(self):
        table = SyncTable(policy=SyncPolicy.OPTIMISTIC)
        table.record_access(0x10, 5.0)
        table.mark_synchronous(0x10, dynamic=True)
        table.check_external_write(0x10, 1.0)
        assert 0x10 in table.dynamic_marks

    def test_forget_after(self):
        table = SyncTable(policy=SyncPolicy.OPTIMISTIC)
        table.record_access(0x10, 5.0)
        table.record_access(0x20, 2.0)
        table.forget_after(3.0)
        assert 0x10 not in table.access_log
        assert table.access_log[0x20] == 2.0

    @given(st.lists(st.tuples(st.integers(0, 63),
                              st.floats(min_value=0, max_value=100,
                                        allow_nan=False)),
                    min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_access_log_keeps_maximum(self, accesses):
        table = SyncTable(policy=SyncPolicy.OPTIMISTIC)
        best = {}
        for addr, t in accesses:
            table.record_access(addr, t)
            best[addr] = max(best.get(addr, float("-inf")), t)
        assert table.access_log == best
