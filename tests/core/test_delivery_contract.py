"""The delivery contract: what crosses a port, and what it leaves behind.

One table per side of the in-subsystem word path (component → interface →
port → net → scheduler → port → component, paper section 2.1).  Every
command shape that touches a port is a row; a row pins everything an
observer outside the kernel can see afterwards — resume values, local
time, the replay log, what is left in ``port.buffer``, ``Port.delivered``,
``Net.posts`` / ``value`` / ``last_change``, observer calls — and the
error rows pin the exact exception type and message.  The kernel is free
to get there any way it likes.

The rig is always the same: ``tx`` drives nets ``na`` and ``nb`` from its
ports ``a`` and ``b``; ``rx`` listens on its own ``a`` and ``b``.  Both
carry an interface ``bus`` on port ``a`` (2-byte words every 0.5 s at
``word`` level; 1 s + 1 s per byte at ``transaction`` level), so the same
wire serves raw sends and protocol transfers.
"""

from dataclasses import dataclass, field

import pytest

from repro.core import (
    PRIORITY_CONTROL,
    PRIORITY_INTERRUPT,
    Advance,
    ConfigurationError,
    Event,
    EventKind,
    FunctionComponent,
    Interface,
    Net,
    Port,
    PortDirection,
    ProtocolError,
    ReactiveComponent,
    Receive,
    ReceiveTransfer,
    Send,
    SimulationError,
    Simulator,
    SwitchLevel,
    Timestamp,
    Transfer,
    TryReceive,
    WaitUntil,
)
from repro.distributed.executor import CoSimulation
from repro.protocols import bus_protocol
from repro.protocols.base import Protocol, ProtocolCodec

IN, OUT, INOUT = PortDirection.IN, PortDirection.OUT, PortDirection.INOUT

#: (direction, hidden) of a port that must hear its net / may drive it.
#: A hidden port does both whatever its direction says.
RECEIVING = [pytest.param((IN, False), id="in"),
             pytest.param((INOUT, False), id="inout"),
             pytest.param((OUT, True), id="hidden")]
DRIVING = [pytest.param((OUT, False), id="out"),
           pytest.param((INOUT, False), id="inout"),
           pytest.param((IN, True), id="hidden")]


class NothingToSend(ProtocolCodec):
    """An object-mode transfer of zero chunks: the header is all of it."""

    def chunk_payload(self, payload):
        return iter(())


class BackwardsClock(ProtocolCodec):
    """A broken user codec: its one chunk takes negative time."""

    def chunk_payload(self, payload):
        yield -1.0, payload


def proto() -> Protocol:
    protocol = bus_protocol(word_width=2, cycle_time=0.5,
                            transaction_bandwidth=1.0,
                            transaction_overhead=1.0)
    protocol.add_level("nothing", NothingToSend())
    protocol.add_level("backwards", BackwardsClock())
    return protocol


def script(*commands):
    """A behaviour that yields ``commands`` and keeps every resume value."""
    def run(comp):
        comp.got = []
        for command in commands:
            value = yield command
            # After the yield: a replayed frame must append to the list
            # the restore put back, not the one it made while replaying.
            comp.got.append(value)
    return run


class Scripted(FunctionComponent):
    def __init__(self, name, commands):
        super().__init__(name, script(*commands))
        self.interrupts = []

    def on_interrupt(self, port, time, value):
        self.interrupts.append((port, time, value))


class Probe(ReactiveComponent):
    """Records every hook call; each ``on_event`` costs ``stride``."""

    def __init__(self, name, stride=0.0):
        super().__init__(name)
        self.calls = []
        self.stride = stride

    def on_event(self, port, time, value):
        self.calls.append(("event", port, time, value))
        self.advance(self.stride)

    def on_interrupt(self, port, time, value):
        self.calls.append(("interrupt", port, time, value))

    def on_transfer(self, interface, time, payload):
        self.calls.append(("transfer", interface, time, payload))


def hdr(seq, level, nchunks, mode="bytes"):
    return ("HDR", ("tx", "bus", seq), level, nchunks, mode)


def chk(seq, index, data):
    return ("CHK", ("tx", "bus", seq), index, data)


def rig(tx, rx, *, tx_ports=(OUT, False), rx_ports=(IN, False), delay=0.0,
        interrupts=()):
    """Wire ``tx`` and ``rx`` (components, or command lists for scripted
    ones) as the module docstring says; returns ``(sim, tx, rx, seen)``."""
    sim = Simulator()
    if isinstance(tx, list):
        tx = Scripted("tx", tx)
    if isinstance(rx, list):
        rx = Scripted("rx", rx)
    for comp, (direction, hidden), end in ((tx, tx_ports, "out_port"),
                                           (rx, rx_ports, "in_port")):
        comp.add_port("a", direction, hidden=hidden)
        comp.add_port("b", direction, hidden=hidden)
        comp.add_interface(Interface("bus", proto(), level="word",
                                     **{end: "a"}))
        sim.add(comp)
    seen = []
    for name in "ab":
        net = sim.wire("n" + name, tx.port(name), rx.port(name), delay=delay)
        net.observers.append(
            lambda net, time, value: seen.append((net.name, time, value)))
    for time, port, value in interrupts:
        sim.subsystem.scheduler.schedule(Event(
            Timestamp(time, PRIORITY_INTERRUPT), EventKind.INTERRUPT,
            target=rx.port(port), payload=value))
    return sim, tx, rx, seen


def at(sim, time, action):
    """Run ``action()`` from a CONTROL event at virtual ``time``."""
    sim.subsystem.scheduler.schedule(Event(
        Timestamp(time, PRIORITY_CONTROL), EventKind.CONTROL,
        target=lambda event: action()))


# ----------------------------------------------------------------------
# the receive side, process flavour
# ----------------------------------------------------------------------
@dataclass
class Row:
    id: str
    tx: list
    rx: list
    got: list
    local_time: float
    log: list
    delivered: dict
    nets: dict                  # name -> (posts, value, last_change)
    seen: list                  # observer calls: (net, time, value)
    left: dict = field(default_factory=dict)   # non-empty buffers
    finished: bool = True
    interrupts: list = field(default_factory=list)
    received_transfers: int = 0


NEVER = float("-inf")
IDLE_NET = (0, None, NEVER)
ABCD_AT_1 = [("na", 1.0, hdr(0, "word", 2)), ("na", 1.5, chk(0, 0, b"ab")),
             ("na", 2.0, chk(0, 1, b"cd"))]
ABCD_AT_0 = [("na", 0.0, hdr(0, "word", 2)), ("na", 0.5, chk(0, 0, b"ab")),
             ("na", 1.0, chk(0, 1, b"cd"))]
IRQ = [(1.0, "a", "irq")]

RECEIVE_ROWS = [
    Row("receive/receiver-ahead",
        tx=[Send("a", "x")], rx=[Advance(2.0), Receive("a")],
        got=[None, (2.0, "x")], local_time=2.0,
        log=[("receive", (2.0, "x"))], delivered={"a": 1, "b": 0},
        nets={"na": (1, "x", 0.0), "nb": IDLE_NET}, seen=[("na", 0.0, "x")]),
    Row("receive/arrives-while-blocked",
        tx=[Advance(1.0), Send("a", "x")], rx=[Receive("a")],
        got=[(1.0, "x")], local_time=1.0,
        log=[("receive", (1.0, "x"))], delivered={"a": 1, "b": 0},
        nets={"na": (1, "x", 1.0), "nb": IDLE_NET}, seen=[("na", 1.0, "x")]),
    Row("receive/already-buffered",
        tx=[Send("a", "x")], rx=[WaitUntil(2.0), Receive("a")],
        got=[2.0, (2.0, "x")], local_time=2.0,
        log=[("wake", 2.0), ("receive", (2.0, "x"))],
        delivered={"a": 1, "b": 0},
        nets={"na": (1, "x", 0.0), "nb": IDLE_NET}, seen=[("na", 0.0, "x")]),
    Row("receive/arrival-on-another-port-waits",
        tx=[Advance(1.0), Send("b", "y"), Advance(1.0), Send("a", "x")],
        rx=[Receive("a")],
        got=[(2.0, "x")], local_time=2.0,
        log=[("receive", (2.0, "x"))], delivered={"a": 1, "b": 1},
        nets={"na": (1, "x", 2.0), "nb": (1, "y", 1.0)},
        seen=[("nb", 1.0, "y"), ("na", 2.0, "x")], left={"b": [(1.0, "y")]}),
    Row("receive/two-values-one-timestamp",
        tx=[Advance(1.0), Send("a", "x"), Send("a", "y")],
        rx=[Receive("a"), Receive("a")],
        got=[(1.0, "x"), (1.0, "y")], local_time=1.0,
        log=[("receive", (1.0, "x")), ("receive", (1.0, "y"))],
        delivered={"a": 2, "b": 0},
        nets={"na": (2, "y", 1.0), "nb": IDLE_NET},
        seen=[("na", 1.0, "x"), ("na", 1.0, "y")]),
    Row("receive/second-of-two-stays-buffered",
        tx=[Advance(1.0), Send("a", "x"), Send("a", "y")], rx=[Receive("a")],
        got=[(1.0, "x")], local_time=1.0,
        log=[("receive", (1.0, "x"))], delivered={"a": 2, "b": 0},
        nets={"na": (2, "y", 1.0), "nb": IDLE_NET},
        seen=[("na", 1.0, "x"), ("na", 1.0, "y")], left={"a": [(1.0, "y")]}),
    Row("tryreceive/empty-then-buffered-then-empty",
        tx=[Advance(1.0), Send("a", "x")],
        rx=[TryReceive("a"), WaitUntil(2.0), TryReceive("a"),
            TryReceive("a")],
        got=[None, 2.0, (2.0, "x"), None], local_time=2.0,
        log=[("tryreceive", None), ("wake", 2.0),
             ("tryreceive", (2.0, "x")), ("tryreceive", None)],
        delivered={"a": 1, "b": 0},
        nets={"na": (1, "x", 1.0), "nb": IDLE_NET}, seen=[("na", 1.0, "x")]),
    Row("transfer/arrives-while-blocked",
        tx=[Advance(1.0), Transfer("bus", b"abcd")],
        rx=[ReceiveTransfer("bus")],
        got=[(2.0, b"abcd")], local_time=2.0,
        log=[("transfer", (2.0, b"abcd"))], delivered={"a": 3, "b": 0},
        nets={"na": (3, chk(0, 1, b"cd"), 2.0), "nb": IDLE_NET},
        seen=ABCD_AT_1, received_transfers=1),
    Row("transfer/already-buffered",
        tx=[Transfer("bus", b"abcd")],
        rx=[WaitUntil(5.0), ReceiveTransfer("bus")],
        got=[5.0, (5.0, b"abcd")], local_time=5.0,
        log=[("wake", 5.0), ("transfer", (5.0, b"abcd"))],
        delivered={"a": 3, "b": 0},
        nets={"na": (3, chk(0, 1, b"cd"), 1.0), "nb": IDLE_NET},
        seen=ABCD_AT_0, received_transfers=1),
    Row("transfer/arrival-on-another-port-waits",
        tx=[Advance(1.0), Send("b", "y"), Transfer("bus", b"ab")],
        rx=[ReceiveTransfer("bus")],
        got=[(1.5, b"ab")], local_time=1.5,
        log=[("transfer", (1.5, b"ab"))], delivered={"a": 2, "b": 1},
        nets={"na": (2, chk(0, 0, b"ab"), 1.5), "nb": (1, "y", 1.0)},
        seen=[("nb", 1.0, "y"), ("na", 1.0, hdr(0, "word", 1)),
              ("na", 1.5, chk(0, 0, b"ab"))],
        left={"b": [(1.0, "y")]}, received_transfers=1),
    Row("transfer/chunks-wait-while-blocked-elsewhere",
        tx=[Transfer("bus", b"abcd"), Advance(1.0), Send("b", "go")],
        rx=[Receive("b"), ReceiveTransfer("bus")],
        got=[(2.0, "go"), (2.0, b"abcd")], local_time=2.0,
        log=[("receive", (2.0, "go")), ("transfer", (2.0, b"abcd"))],
        delivered={"a": 3, "b": 1},
        nets={"na": (3, chk(0, 1, b"cd"), 1.0), "nb": (1, "go", 2.0)},
        seen=ABCD_AT_0 + [("nb", 2.0, "go")], received_transfers=1),
    Row("transfer/level-switch-between-transfers",
        tx=[Transfer("bus", b"ab"), SwitchLevel("transaction"),
            Transfer("bus", b"cd")],
        rx=[ReceiveTransfer("bus"), ReceiveTransfer("bus")],
        got=[(0.5, b"ab"), (3.5, b"cd")], local_time=3.5,
        log=[("transfer", (0.5, b"ab")), ("transfer", (3.5, b"cd"))],
        delivered={"a": 4, "b": 0},
        nets={"na": (4, chk(1, 0, b"cd"), 3.5), "nb": IDLE_NET},
        seen=[("na", 0.0, hdr(0, "word", 1)), ("na", 0.5, chk(0, 0, b"ab")),
              ("na", 0.5, hdr(1, "transaction", 1)),
              ("na", 3.5, chk(1, 0, b"cd"))],
        received_transfers=2),
    Row("transfer/empty-bytes-is-a-payload",
        tx=[Advance(1.0), Transfer("bus", b"")], rx=[ReceiveTransfer("bus")],
        got=[(1.0, b"")], local_time=1.0,
        log=[("transfer", (1.0, b""))], delivered={"a": 1, "b": 0},
        nets={"na": (1, hdr(0, "word", 0), 1.0), "nb": IDLE_NET},
        seen=[("na", 1.0, hdr(0, "word", 0))], received_transfers=1),
    Row("receive/raw-wire-values-on-an-interface-port",
        tx=[Transfer("bus", b"ab")], rx=[Receive("a")],
        got=[(0.0, hdr(0, "word", 1))], local_time=0.0,
        log=[("receive", (0.0, hdr(0, "word", 1)))],
        delivered={"a": 2, "b": 0},
        nets={"na": (2, chk(0, 0, b"ab"), 0.5), "nb": IDLE_NET},
        seen=[("na", 0.0, hdr(0, "word", 1)), ("na", 0.5, chk(0, 0, b"ab"))],
        left={"a": [(0.5, chk(0, 0, b"ab"))]}),
    Row("interrupt/blocked-on-that-port",
        tx=[], rx=[Receive("a")], interrupts=IRQ,
        got=[(1.0, "irq")], local_time=1.0,
        log=[("receive", (1.0, "irq"))], delivered={"a": 1, "b": 0},
        nets={"na": IDLE_NET, "nb": IDLE_NET}, seen=[]),
    Row("interrupt/blocked-on-another-port",
        tx=[], rx=[Receive("b")], interrupts=IRQ,
        got=[], local_time=0.0, log=[], delivered={"a": 1, "b": 0},
        nets={"na": IDLE_NET, "nb": IDLE_NET}, seen=[],
        left={"a": [(1.0, "irq")]}, finished=False),
    Row("interrupt/blocked-on-a-wake",
        tx=[], rx=[WaitUntil(3.0), TryReceive("a")], interrupts=IRQ,
        got=[3.0, (3.0, "irq")], local_time=3.0,
        log=[("wake", 3.0), ("tryreceive", (3.0, "irq"))],
        delivered={"a": 1, "b": 0},
        nets={"na": IDLE_NET, "nb": IDLE_NET}, seen=[]),
    Row("interrupt/outranks-a-signal-at-its-instant",
        tx=[Advance(1.0), Send("a", "x")], rx=[Receive("a"), Receive("a")],
        interrupts=IRQ,
        got=[(1.0, "irq"), (1.0, "x")], local_time=1.0,
        log=[("receive", (1.0, "irq")), ("receive", (1.0, "x"))],
        delivered={"a": 2, "b": 0},
        nets={"na": (1, "x", 1.0), "nb": IDLE_NET}, seen=[("na", 1.0, "x")]),
]


def observed(rx, sim, seen):
    return {
        "got": rx.got, "local_time": rx.local_time, "log": rx._log,
        "left": {name: list(port.buffer)
                 for name, port in rx.ports.items() if port.buffer},
        "delivered": {name: port.delivered
                      for name, port in rx.ports.items()},
        "nets": {name: (net.posts, net.value, net.last_change)
                 for name, net in sim.subsystem.nets.items()},
        "seen": seen, "finished": rx.finished,
        "interrupts": rx.interrupts,
        "received_transfers": rx.interface("bus").received_transfers,
    }


def expected(row):
    return {"got": row.got, "local_time": row.local_time, "log": row.log,
            "left": row.left, "delivered": row.delivered, "nets": row.nets,
            "seen": row.seen, "finished": row.finished,
            "interrupts": [(port, time, value)
                           for time, port, value in row.interrupts],
            "received_transfers": row.received_transfers}


@pytest.mark.parametrize("rx_ports", RECEIVING)
@pytest.mark.parametrize("row", RECEIVE_ROWS, ids=lambda row: row.id)
def test_receive_row(row, rx_ports):
    sim, tx, rx, seen = rig(row.tx, row.rx, rx_ports=rx_ports,
                            interrupts=row.interrupts)
    sim.run()
    assert observed(rx, sim, seen) == expected(row)
    assert not rx.interface("bus")._partial


# ----------------------------------------------------------------------
# the receive side, reactive flavour
# ----------------------------------------------------------------------
#: id, tx commands, interrupts, stride -> hook calls, local time,
#: transfers completed.  A reactive port never buffers and never counts
#: (``buffer`` empty, ``delivered`` 0): the hook is the delivery.
REACTIVE_ROWS = [
    ("on_event", [Advance(1.0), Send("b", "x")], [], 0.0,
     [("event", "b", 1.0, "x")], 1.0, 0),
    ("on_event/two-values-one-timestamp",
     [Advance(1.0), Send("b", "x"), Send("b", "y")], [], 0.0,
     [("event", "b", 1.0, "x"), ("event", "b", 1.0, "y")], 1.0, 0),
    # The hook is told the event's time; local time only ever moves up.
    ("on_event/handler-ran-past-the-next-arrival",
     [Advance(1.0), Send("b", "x"), Advance(1.0), Send("b", "y")], [], 5.0,
     [("event", "b", 1.0, "x"), ("event", "b", 2.0, "y")], 11.0, 0),
    ("on_interrupt", [], [(1.0, "b", "irq")], 0.0,
     [("interrupt", "b", 1.0, "irq")], 1.0, 0),
    ("on_transfer", [Advance(1.0), Transfer("bus", b"abcd")], [], 0.0,
     [("transfer", "bus", 2.0, b"abcd")], 2.0, 1),
    ("on_transfer/level-switch-between-transfers",
     [Transfer("bus", b"ab"), SwitchLevel("transaction"),
      Transfer("bus", b"cd")], [], 0.0,
     [("transfer", "bus", 0.5, b"ab"), ("transfer", "bus", 3.5, b"cd")],
     3.5, 2),
]


@pytest.mark.parametrize("rx_ports", RECEIVING)
@pytest.mark.parametrize("row", REACTIVE_ROWS, ids=lambda row: row[0])
def test_reactive_row(row, rx_ports):
    __, commands, interrupts, stride, calls, local_time, transfers = row
    sim, tx, rx, seen = rig(commands, Probe("rx", stride), rx_ports=rx_ports,
                            interrupts=interrupts)
    sim.run()
    assert rx.calls == calls
    assert rx.local_time == local_time
    assert rx.interface("bus").received_transfers == transfers
    assert [list(port.buffer) for port in rx.ports.values()] == [[], []]
    assert [port.delivered for port in rx.ports.values()] == [0, 0]


def test_default_on_interrupt_is_on_event():
    class Plain(ReactiveComponent):
        calls = ()

        def on_event(self, port, time, value):
            self.calls += ((port, time, value),)

    sim, tx, rx, seen = rig([], Plain("rx"), interrupts=[(1.0, "b", "irq")])
    sim.run()
    assert rx.calls == (("b", 1.0, "irq"),)


# ----------------------------------------------------------------------
# the drive side
# ----------------------------------------------------------------------
#: id, tx commands -> what rx resumes with (net delay 0.25), tx local
#: time, the net's (posts, value, last_change), tx replay log,
#: (sent_transfers, sent_chunks, sent_payload_bytes).
DRIVE_ROWS = [
    ("send", [Advance(1.0), Send("a", "x")], Receive("a"),
     (1.25, "x"), 1.0, (1, "x", 1.0), [], (0, 0, 0)),
    ("send/delay", [Advance(1.0), Send("a", "x", delay=0.5)], Receive("a"),
     (1.75, "x"), 1.0, (1, "x", 1.5), [], (0, 0, 0)),
    ("transfer/word", [Advance(1.0), Transfer("bus", b"abcd")],
     ReceiveTransfer("bus"),
     (2.25, b"abcd"), 2.0, (3, chk(0, 1, b"cd"), 2.0),
     [("transfer_out", 1.0)], (1, 3, 4)),
    ("transfer/transaction",
     [SwitchLevel("transaction"), Transfer("bus", b"abcd")],
     ReceiveTransfer("bus"),
     (5.25, b"abcd"), 5.0, (2, chk(0, 0, b"abcd"), 5.0),
     [("transfer_out", 5.0)], (1, 2, 4)),
]


@pytest.mark.parametrize("tx_ports", DRIVING)
@pytest.mark.parametrize("row", DRIVE_ROWS, ids=lambda row: row[0])
def test_drive_row(row, tx_ports):
    __, commands, receive, resumed, local_time, net, log, sent = row
    sim, tx, rx, seen = rig(commands, [receive], tx_ports=tx_ports, delay=0.25)
    sim.run()
    assert rx.got == [resumed]
    assert tx.local_time == local_time
    wire = sim.subsystem.net("na")
    assert (wire.posts, wire.value, wire.last_change) == net
    assert seen[-1] == ("na", wire.last_change, wire.value)
    assert len(seen) == wire.posts
    assert tx._log == log
    bus = tx.interface("bus")
    assert (bus.sent_transfers, bus.sent_chunks,
            bus.sent_payload_bytes) == sent
    # A driver never hears itself, whatever its direction.
    assert not tx.port("a").buffer and tx.port("a").delivered == 0


def test_a_clock_that_is_a_float_subclass_survives_the_post():
    """A post hands the queue a bare arrival time; both Event backends
    take numpy scalars (what a model computing its timing in numpy
    yields) as they take floats."""
    import numpy
    sim, tx, rx, seen = rig([Advance(numpy.float64(1.5)), Send("a", "x")],
                            [Receive("a")])
    sim.run()
    assert rx.got == [(1.5, "x")] and sim.now == 1.5


def test_reactive_send_and_transfer_twins():
    class Talker(ReactiveComponent):
        def on_start(self):
            self.advance(1.0)
            self.send("b", "x", 0.5)
            self.took = self.transfer("bus", b"abcd")

    sim, tx, rx, seen = rig(Talker("tx"), Probe("rx"))
    sim.run()
    assert tx.took == 1.0 and tx.local_time == 2.0
    assert seen == [("nb", 1.5, "x")] + ABCD_AT_1
    assert rx.calls == [("event", "b", 1.5, "x"),
                        ("transfer", "bus", 2.0, b"abcd")]
    bus = tx.interface("bus")
    assert (bus.sent_transfers, bus.sent_chunks,
            bus.sent_payload_bytes) == (1, 3, 4)


def test_fan_out_reaches_every_listener_in_connect_order():
    """Listeners hear a post in the order they joined the net; a second
    pure driver on the wire hears nothing."""
    order = []

    class Tap(Probe):
        def on_event(self, port, time, value):
            order.append(self.name)

    sim, tx, rx, seen = rig([Advance(1.0), Send("b", 1)], Tap("rx"))
    late, early, rival = Tap("late"), Tap("early"), Tap("rival")
    for tap, direction in ((early, IN), (late, INOUT), (rival, OUT)):
        sim.add(tap)
        sim.subsystem.net("nb").connect(tap.add_port("b", direction))
    sim.run()
    assert order == ["rx", "early", "late"]


# ----------------------------------------------------------------------
# wiring changed between two posts
# ----------------------------------------------------------------------
def test_direction_assigned_after_wiring_takes_effect_on_the_next_post():
    sends = [WaitUntil(1.0), Send("a", 1), WaitUntil(2.0), Send("a", 2),
             WaitUntil(3.0), Send("a", 3)]
    sim, tx, rx, seen = rig(sends, [Receive("a"), Receive("a")],
                            rx_ports=(OUT, False))
    port = rx.port("a")
    at(sim, 1.5, lambda: setattr(port, "direction", INOUT))
    at(sim, 2.5, lambda: setattr(port, "direction", OUT))
    sim.run()
    assert rx.got == [(2.0, 2)] and not rx.finished
    assert port.delivered == 1 and sim.subsystem.net("na").posts == 3
    assert port.direction is OUT


def test_direction_assigned_after_wiring_opens_and_closes_the_drive_side():
    sim, tx, rx, seen = rig([WaitUntil(1.0), Send("a", 1), WaitUntil(2.0),
                             Send("a", 2)], [Receive("a"), Receive("a")],
                            tx_ports=(IN, False))
    at(sim, 0.5, lambda: setattr(tx.port("a"), "direction", OUT))
    at(sim, 1.5, lambda: setattr(tx.port("a"), "direction", IN))
    with pytest.raises(ConfigurationError,
                       match="input port tx.a cannot drive its net"):
        sim.run()
    assert rx.got == [(1.0, 1)]


def test_port_connected_between_posts():
    sends = [WaitUntil(1.0), Send("b", 1), WaitUntil(2.0), Send("b", 2),
             WaitUntil(3.0), Send("b", 3)]
    sim, tx, rx, seen = rig(sends, Probe("rx"))
    late = sim.add(Probe("late"))
    heard = late.add_port("b", IN)
    at(sim, 1.5, lambda: sim.subsystem.net("nb").connect(heard))
    sim.run()
    assert rx.calls == [("event", "b", 1.0, 1), ("event", "b", 2.0, 2),
                        ("event", "b", 3.0, 3)]
    assert late.calls == [("event", "b", 2.0, 2), ("event", "b", 3.0, 3)]
    assert heard.net is sim.subsystem.net("nb")


# ----------------------------------------------------------------------
# checkpoint taken mid-reassembly
# ----------------------------------------------------------------------
def test_checkpoint_mid_reassembly_round_trips():
    sim, tx, rx, seen = rig(
        [Transfer("bus", b"ab"), Transfer("bus", b"cdef")],
        [ReceiveTransfer("bus"), ReceiveTransfer("bus")])
    bus = rx.interface("bus")
    sim.run(max_events=4)       # HDR CHK | HDR CHK, one chunk to come
    mid = {("tx", "bus", 1): {"level": "word", "expected": 2,
                              "mode": "bytes", "chunks": {0: b"cd"}}}
    assert bus._partial == mid and bus._partial
    checkpoint = sim.checkpoint("mid")
    sim.run()
    end = observed(rx, sim, [])
    assert end["got"] == [(0.5, b"ab"), (1.5, b"cdef")]
    assert end["log"] == [("transfer", (0.5, b"ab")),
                          ("transfer", (1.5, b"cdef"))]

    sim.restore(checkpoint)
    assert bus._partial == mid
    assert rx._log == [("transfer", (0.5, b"ab"))]
    assert rx.got == [(0.5, b"ab")]
    assert (rx.local_time, bus.received_transfers) == (1.0, 1)
    assert rx.is_blocked() and not rx.port("a").buffer
    sim.run()
    # ``Port.delivered`` is a lifetime count, not simulation state: the
    # chunk delivered again after the restore counts again.
    end["delivered"]["a"] += 1
    assert observed(rx, sim, []) == end


def test_checkpoint_between_buffered_chunks_round_trips():
    """The chunks of a transfer nobody is waiting for yet are port state,
    not interface state, and come back as such."""
    sim, tx, rx, seen = rig([Transfer("bus", b"abcd")],
                            [WaitUntil(5.0), ReceiveTransfer("bus")])
    sim.run(max_events=2)
    buffered = [(0.0, hdr(0, "word", 2)), (0.5, chk(0, 0, b"ab"))]
    assert list(rx.port("a").buffer) == buffered
    checkpoint = sim.checkpoint()
    sim.run()
    assert rx.got == [5.0, (5.0, b"abcd")]
    sim.restore(checkpoint)
    assert list(rx.port("a").buffer) == buffered
    assert not rx.interface("bus")._partial and rx._log == []
    sim.run()
    assert rx.got == [5.0, (5.0, b"abcd")]


# ----------------------------------------------------------------------
# errors: type and message, exactly
# ----------------------------------------------------------------------
def _signal_to(sim, port, value="v"):
    sim.subsystem.scheduler.schedule(
        Event(Timestamp(1.0), EventKind.SIGNAL, target=port, payload=value))


def delivery_to_a_pure_output_port():
    sim, tx, rx, seen = rig([], [])
    _signal_to(sim, tx.port("a"))
    return sim


def drive_from_a_pure_input_port():
    return rig([], [Send("a", 1)])[0]


def transfer_from_a_pure_input_port():
    return rig([Transfer("bus", b"ab")], [], tx_ports=(IN, False))[0]


def port_on_no_net():
    sim, tx, rx, seen = rig([Send("c", 1)], [])
    tx.add_port("c", OUT)
    return sim


def net_in_no_subsystem():
    sim, tx, rx, seen = rig([Send("c", 1)], [])
    Net("loose").connect(tx.add_port("c", OUT))
    return sim


def orphan_port():
    sim, tx, rx, seen = rig([], [])
    _signal_to(sim, Port("nobodys"))
    return sim


def negative_advance():
    return rig([Advance(-1.0)], [])[0]


def negative_advance_reactive():
    class Backwards(ReactiveComponent):
        def on_start(self):
            self.advance(-1.0)

    return rig(Backwards("tx"), [])[0]


def negative_chunk_time_reactive():
    class Backwards(ReactiveComponent):
        def on_start(self):
            self.interface("bus").set_level("backwards")
            self.transfer("bus", "payload")

    return rig(Backwards("tx"), [])[0]


def negative_chunk_time_process():
    """(The parent of the change that introduced this file let a process
    component's clock run backwards here: its transfers advanced through
    an unchecked twin of ``advance``.)"""
    sends = [Advance(5.0), SwitchLevel("backwards"), Transfer("bus", "p")]
    return rig(sends, [])[0]


def wire_values(*values, rx=None):
    def build():
        commands = []
        for value in values:
            commands += [Advance(1.0), Send("a", value)]
        receiver = Probe("rx") if rx is Probe else [ReceiveTransfer("bus")]
        return rig(commands, receiver)[0]
    return build


def no_output_port():
    return rig([], [Transfer("bus", b"ab")])[0]


def no_input_port():
    return rig([ReceiveTransfer("bus")], [])[0]


ERROR_ROWS = [
    (delivery_to_a_pure_output_port, ConfigurationError,
     "output port tx.a cannot receive values"),
    (drive_from_a_pure_input_port, ConfigurationError,
     "input port rx.a cannot drive its net"),
    (transfer_from_a_pure_input_port, ConfigurationError,
     "input port tx.a cannot drive its net"),
    (port_on_no_net, ConfigurationError, "port tx.c is not on any net"),
    (net_in_no_subsystem, ConfigurationError,
     "net loose is not registered with any subsystem"),
    (orphan_port, SimulationError,
     "signal delivered to orphan port 'nobodys'"),
    (negative_advance, SimulationError, "tx: negative advance -1.0"),
    (negative_advance_reactive, SimulationError,
     "tx: negative advance -1.0"),
    (negative_chunk_time_reactive, SimulationError,
     "tx: negative advance -1.0"),
    (negative_chunk_time_process, SimulationError,
     "tx: negative advance -1.0"),
    (wire_values("junk"), ProtocolError, "malformed wire value: 'junk'"),
    (wire_values(()), ProtocolError, "malformed wire value: ()"),
    (wire_values("junk", rx=Probe), ProtocolError,
     "malformed wire value: 'junk'"),
    (wire_values(("NOPE",)), ProtocolError, "unknown wire tag 'NOPE'"),
    (wire_values(("CHK", "t", 0, b"x")), ProtocolError,
     "chunk for unknown transfer 't' (header lost or duplicated?)"),
    (wire_values(("HDR", "t", "word", 2, "bytes"), ("CHK", "t", 0, b"x"),
                 ("CHK", "t", 0, b"x")), ProtocolError,
     "duplicate chunk 0 for transfer 't'"),
    (no_output_port, ConfigurationError, "rx.bus: no output port"),
    (no_input_port, ConfigurationError,
     "tx.bus: interface has no input port"),
    (lambda: rig([Receive("zz")], [])[0], ConfigurationError,
     "tx: no port named 'zz'"),
    (lambda: rig([TryReceive("zz")], [])[0], ConfigurationError,
     "tx: no port named 'zz'"),
    (lambda: rig([Send("zz", 1)], [])[0], ConfigurationError,
     "tx: no port named 'zz'"),
    (lambda: rig([ReceiveTransfer("zz")], [])[0], ConfigurationError,
     "tx: no interface named 'zz'"),
    (lambda: rig([Transfer("zz", b"")], [])[0], ConfigurationError,
     "tx: no interface named 'zz'"),
]


@pytest.mark.parametrize(
    "build, error, message", ERROR_ROWS,
    ids=[getattr(row[0], "__name__", "row") + f"-{index}"
         for index, row in enumerate(ERROR_ROWS)])
def test_error_row(build, error, message):
    sim = build()
    with pytest.raises(error) as raised:
        sim.run()
    assert type(raised.value) is error
    assert str(raised.value) == message


# ----------------------------------------------------------------------
# ``None`` is a payload (these rows fail on the parent of the change that
# introduced this file: a completed ``None`` transfer was counted, then
# read as "not yet" and lost)
# ----------------------------------------------------------------------
NONE_SENDS = [Advance(1.0), SwitchLevel("transaction"),
              Transfer("bus", None), Transfer("bus", b"after")]
#: One transaction-level object is 64 nominal bytes: 1 s + 64 s.
NONE_GOT = [(66.0, None), (72.0, b"after")]


@pytest.mark.parametrize("rx_commands", [
    [ReceiveTransfer("bus"), ReceiveTransfer("bus")],
    [WaitUntil(100.0), ReceiveTransfer("bus"), ReceiveTransfer("bus")],
], ids=["arrives-while-blocked", "already-buffered"])
def test_none_payload_transfer_is_delivered(rx_commands):
    sim, tx, rx, seen = rig(NONE_SENDS, rx_commands)
    sim.run()
    assert [value for __, value in rx.got[-2:]] == [None, b"after"]
    if len(rx_commands) == 2:
        assert rx.got == NONE_GOT
        assert rx._log == [("transfer", got) for got in NONE_GOT]
    assert rx.finished
    assert rx.interface("bus").received_transfers == 2


def test_none_payload_transfer_reaches_on_transfer():
    sim, tx, rx, seen = rig(NONE_SENDS, Probe("rx"))
    sim.run()
    assert rx.calls == [("transfer", "bus", 66.0, None),
                        ("transfer", "bus", 72.0, b"after")]


def test_zero_chunk_object_header_is_a_complete_none_transfer():
    commands = [Advance(1.0), Transfer("bus", "ignored"),
                SwitchLevel("word"), Transfer("bus", b"ab")]
    sim, tx, rx, seen = rig(commands, [ReceiveTransfer("bus"),
                                       ReceiveTransfer("bus")])
    tx.interface("bus").set_level("nothing")
    sim.run()
    assert seen[0] == ("na", 1.0, hdr(0, "nothing", 0, "object"))
    assert rx.got == [(1.0, None), (1.5, b"ab")] and rx.finished
    assert rx.interface("bus").received_transfers == 2


def test_none_payload_transfer_crosses_a_channel():
    cosim = CoSimulation()
    near = cosim.add_subsystem(cosim.add_node("n-tx"), "near")
    far = cosim.add_subsystem(cosim.add_node("n-rx"), "far")
    tx = Scripted("tx", NONE_SENDS)
    tx.add_interface(Interface("bus", proto(), out_port="a"))
    rx = Scripted("rx", [ReceiveTransfer("bus"), ReceiveTransfer("bus")])
    rx.add_interface(Interface("bus", proto(), in_port="a"))
    near.add(tx)
    far.add(rx)
    cosim.connect(near, far).split_net(near.wire("na", tx.port("a")),
                                       far.wire("na", rx.port("a")))
    cosim.run()
    assert rx.got == NONE_GOT and rx.finished
    assert rx.interface("bus").received_transfers == 2
