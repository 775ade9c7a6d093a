"""Reactive components and the interface/transfer machinery."""

import pytest

from repro.core import (
    Advance,
    ConfigurationError,
    FunctionComponent,
    Interface,
    PortDirection,
    ProtocolError,
    ReactiveComponent,
    ReceiveTransfer,
    RunLevelError,
    Simulator,
    Transfer,
    TryReceive,
)
from repro.protocols import bus_protocol, packet_protocol, reassemble_step


class Echo(ReactiveComponent):
    """Replies to each value with value+1 after a compute delay."""

    def __init__(self, name):
        super().__init__(name)
        self.handled = 0
        self.add_port("in", PortDirection.IN)
        self.add_port("out", PortDirection.OUT)

    def on_event(self, port, time, value):
        self.handled += 1
        self.advance(0.5)
        self.send("out", value + 1)


class TestReactiveComponent:
    def _pair(self):
        sim = Simulator()
        echo = sim.add(Echo("echo"))

        def driver(comp):
            comp.replies = []
            for value in (10, 20, 30):
                from repro.core import Receive, Send
                yield Advance(1.0)
                yield Send("out", value)
            while len(comp.replies) < 3:
                from repro.core import Receive
                t, v = yield Receive("in")
                comp.replies.append((t, v))

        drv = FunctionComponent("drv", driver,
                                ports={"out": "out", "in": "in"})
        sim.add(drv)
        sim.wire("fwd", drv.port("out"), echo.port("in"))
        sim.wire("bwd", echo.port("out"), drv.port("in"))
        return sim, echo, drv

    def test_handler_runs_at_event_time_and_advances(self):
        sim, echo, drv = self._pair()
        sim.run()
        assert echo.handled == 3
        # The driver ran ahead to local t=3.0 before its first receive, so
        # replies arriving earlier (1.5, 2.5) are consumed at its pause
        # point — two-level time at work.
        assert drv.replies == [(3.0, 11), (3.0, 21), (3.5, 31)]
        assert echo.local_time == 3.5

    def test_wake_scheduling(self):
        sim = Simulator()

        class Ticker(ReactiveComponent):
            def __init__(self, name):
                super().__init__(name)
                self.ticks = []

            def on_start(self):
                self.wake_after(1.0, payload="first")

            def on_wake(self, time, payload):
                self.ticks.append((time, payload))
                if len(self.ticks) < 3:
                    self.wake_after(1.0, payload="again")

        ticker = sim.add(Ticker("ticker"))
        sim.run()
        assert ticker.ticks == [(1.0, "first"), (2.0, "again"),
                                (3.0, "again")]

    def test_negative_advance_rejected(self):
        sim = Simulator()
        echo = sim.add(Echo("echo"))
        from repro.core import SimulationError
        with pytest.raises(SimulationError):
            echo.advance(-1.0)

    def test_on_transfer_hook(self):
        sim = Simulator()

        class Receiverside(ReactiveComponent):
            def __init__(self, name):
                super().__init__(name)
                self.payloads = []
                self.add_interface(Interface("bus", bus_protocol(),
                                             level="word", in_port="rx"))

            def on_transfer(self, interface, time, payload):
                self.payloads.append((interface, payload))

        def sender(comp):
            yield Advance(1.0)
            yield Transfer("bus", b"hello world!")

        rx = sim.add(Receiverside("rx"))
        tx = FunctionComponent("tx", sender)
        tx.add_interface(Interface("bus", bus_protocol(), level="word",
                                   out_port="tx"))
        sim.add(tx)
        sim.wire("link", tx.port("tx"), rx.port("rx"))
        sim.run()
        assert rx.payloads == [("bus", b"hello world!")]

    def test_reactive_transfer_send(self):
        sim = Simulator()

        class Sender(ReactiveComponent):
            def __init__(self, name):
                super().__init__(name)
                self.add_interface(Interface("bus", bus_protocol(),
                                             level="byte", out_port="tx"))

            def on_start(self):
                self.advance(1.0)
                duration = self.transfer("bus", b"xyz")
                assert duration > 0

        def collector(comp):
            comp.got = []
            while True:
                t, payload = yield ReceiveTransfer("bus")
                comp.got.append(payload)

        rx = FunctionComponent("rx", collector)
        rx.add_interface(Interface("bus", bus_protocol(), level="byte",
                                   in_port="rx"))
        sim.add(Sender("txer"))
        sim.add(rx)
        sim.wire("link", sim.component("txer").port("tx"), rx.port("rx"))
        sim.run()
        assert rx.got == [b"xyz"]


class TestInterfaceRules:
    def test_unknown_level_at_construction(self):
        with pytest.raises(RunLevelError):
            Interface("bus", bus_protocol(), level="warp", out_port="o")

    def test_set_level_validates(self):
        iface = Interface("bus", bus_protocol(), out_port="o")
        with pytest.raises(RunLevelError):
            iface.set_level("warp")

    def test_emit_requires_binding(self):
        iface = Interface("bus", bus_protocol(), out_port="o")
        with pytest.raises(ConfigurationError):
            iface.emit(b"x", 0.0, advance=lambda dt: None)

    def test_transfer_ids_unique_per_interface(self):
        sim = Simulator()

        def sender(comp):
            yield Transfer("bus", b"a")
            yield Transfer("bus", b"b")

        tx = FunctionComponent("tx", sender)
        tx.add_interface(Interface("bus", bus_protocol(),
                                   level="transaction", out_port="o"))
        collected = []

        def collector(comp):
            while True:
                t, payload = yield ReceiveTransfer("bus")
                collected.append(payload)

        rx = FunctionComponent("rx", collector)
        rx.add_interface(Interface("bus", bus_protocol(),
                                   level="transaction", in_port="i"))
        sim.add(tx)
        sim.add(rx)
        sim.wire("l", tx.port("o"), rx.port("i"))
        sim.run()
        assert collected == [b"a", b"b"]
        assert tx.interface("bus").sent_transfers == 2
        assert rx.interface("bus").received_transfers == 2

    def test_level_switch_is_safe_across_transfers(self):
        """A transfer emitted at word level reassembles even after the
        receiver's configured level changed — framing is self-describing,
        so transfer boundaries are always safe points."""
        sim = Simulator()

        def sender(comp):
            yield Transfer("bus", b"first")   # word level
            comp.interface("bus").set_level("transaction")
            yield Transfer("bus", b"second")  # transaction level

        tx = FunctionComponent("tx", sender)
        tx.add_interface(Interface("bus", bus_protocol(), level="word",
                                   out_port="o"))
        got = []

        def collector(comp):
            for __ in range(2):
                t, payload = yield ReceiveTransfer("bus")
                got.append(payload)

        rx = FunctionComponent("rx", collector)
        rx.add_interface(Interface("bus", bus_protocol(), level="word",
                                   in_port="i"))
        sim.add(tx)
        sim.add(rx)
        sim.wire("l", tx.port("o"), rx.port("i"))
        sim.run()
        assert got == [b"first", b"second"]

    def test_snapshot_state_roundtrip(self):
        iface = Interface("bus", packet_protocol(), in_port="i")
        comp = FunctionComponent("c", lambda comp: iter(()))
        comp.add_interface(iface)
        reassemble_step(iface._partial, ("HDR", ("t", 9), "packet", 2, "bytes"))
        state = iface.snapshot_state()
        reassemble_step(iface._partial, ("CHK", ("t", 9), 0, b"zz"))
        iface.set_level("word")
        iface.restore_state(state)
        assert iface.level == "packet"
        assert iface._partial
        reassemble_step(iface._partial, ("CHK", ("t", 9), 0, b"aa"))
        assert reassemble_step(iface._partial, ("CHK", ("t", 9), 1, b"bb")) == b"aabb"


class TestTryReceive:
    def test_nonblocking_semantics(self):
        sim = Simulator()

        def poller(comp):
            comp.polls = []
            first = yield TryReceive("in")
            comp.polls.append(first)            # nothing yet
            from repro.core import WaitUntil
            yield WaitUntil(5.0)
            second = yield TryReceive("in")
            comp.polls.append(second)
            third = yield TryReceive("in")
            comp.polls.append(third)

        def pusher(comp):
            from repro.core import Send
            yield Advance(2.0)
            yield Send("out", "ping")

        poll = FunctionComponent("poll", poller, ports={"in": "in"})
        push = FunctionComponent("push", pusher, ports={"out": "out"})
        sim.add(poll)
        sim.add(push)
        sim.wire("n", push.port("out"), poll.port("in"))
        sim.run()
        assert poll.polls[0] is None
        assert poll.polls[1] == (5.0, "ping")
        assert poll.polls[2] is None

    def test_tryreceive_replays(self):
        sim = Simulator()

        def poller(comp):
            from repro.core import WaitUntil
            comp.polls = []
            yield WaitUntil(3.0)
            got = yield TryReceive("in")
            comp.polls.append(got)
            yield WaitUntil(6.0)

        def pusher(comp):
            from repro.core import Send
            yield Advance(1.0)
            yield Send("out", 7)

        poll = FunctionComponent("poll", poller, ports={"in": "in"})
        push = FunctionComponent("push", pusher, ports={"out": "out"})
        sim.add(poll)
        sim.add(push)
        sim.wire("n", push.port("out"), poll.port("in"))
        sim.run(until=4.0)
        cid = sim.checkpoint()
        sim.run()
        sim.restore(cid)
        assert poll.polls == [(3.0, 7)]
        sim.run()
        assert poll.finished
