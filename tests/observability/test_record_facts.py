"""Per-event records are filed as their facts and built when read.

A lit run files a caused ``DISPATCH``, a ``STALL`` and the
``MSG_SEND``/``MSG_RECV`` of ``send``, ``call`` and ``poll`` as flat
tuples of scalars (:mod:`repro.observability.trace`).  Every reader must
still get exactly the record the filing site used to build: the oracles
below are those constructors, written out — a message record was its
call site's details (``message_kind`` first) plus the span and parent of
the message (a call's reply: of its request), a caused dispatch
``{event, cause, before}``, a stall ``{horizon, next_event[, cause]}``.
Equality is checked with the detail keys' order, for the
:class:`TraceRecord` iteration yields and for the flattened dict
:func:`record_dicts` builds straight from the facts.  And a filed item
holds no message, event or payload: only scalars and spans.
"""

import gc
import time as _time
from collections import Counter

import pytest

from repro.bench.workloads import streaming_pair_spec
from repro.core import Event, EventKind, Subsystem, Timestamp
from repro.core import events as _events
from repro.core.port import PortDirection
from repro.distributed import build
from repro.observability import Telemetry, TraceKind, TraceRecord
from repro.observability.trace import record_dicts
from repro.transport import InMemoryTransport, TcpTransport
from repro.transport.message import BatchFrame, Message, MessageKind

#: What no ring item may reference.
_FORBIDDEN = (Message, BatchFrame, _events.Event, _events.PythonEvent)
#: A cause span as a channel crossing stamps it on an event.
CAUSE = ("n-peer", 0, 1)


# ----------------------------------------------------------------------
# the old constructors
# ----------------------------------------------------------------------

def old_message_record(filed, kind, message, details, request=None):
    """The ``MSG_SEND``/``MSG_RECV`` record the transport built at file
    time from the call site's ``details``; ``seq`` and ``wall`` are the
    filed record's (an ordinal and a clock reading, not facts)."""
    spanned = message if request is None else request
    details = dict(details)
    if spanned.trace is not None:
        details["span"] = (spanned.src, spanned.epoch, spanned.trace[0])
        details["parent"] = spanned.trace[1]
    return TraceRecord(filed.seq, kind, message.time,
                       f"{message.src}->{message.dst}", details, filed.wall)


def assert_same(record, old, flat=None):
    """``record`` (and its flattened dict ``flat``) is ``old``, key order
    included."""
    assert type(record) is TraceRecord
    assert record == old and record.wall == old.wall
    assert list(record.details) == list(old.details)
    if flat is not None:
        expected = dict(old.to_dict(), wall=old.wall)
        assert flat == expected and list(flat) == list(expected)


def assert_holds_no_run_objects(ring, payloads=()):
    """No item of ``ring`` references a message, an event or one of
    ``payloads`` (checked through nested tuples: spans, contexts)."""
    banned = {id(payload) for payload in payloads}
    for item in ring.items:
        stack = [item]
        while stack:
            for referent in gc.get_referents(stack.pop()):
                assert not isinstance(referent, _FORBIDDEN), (item, referent)
                assert id(referent) not in banned, (item, referent)
                if type(referent) is tuple:
                    stack.append(referent)


# ----------------------------------------------------------------------
# the message kinds, on two carriers
# ----------------------------------------------------------------------

class Weighed:
    """Remembers the wire size of every message packed and every reply
    that came back, in order: the ``bytes`` an old record carried."""

    def _pack(self, message):
        parcel, size = super()._pack(message)
        self.sizes.append(size)
        return parcel, size

    def _round_trip(self, message, parcel):
        reply, size = super()._round_trip(message, parcel)
        self.reply_sizes.append(size)
        return reply, size


class WeighedMemory(Weighed, InMemoryTransport):
    pass


class WeighedTcp(Weighed, TcpTransport):
    pass


CARRIERS = {"inmemory": WeighedMemory, "tcp": WeighedTcp}


@pytest.fixture(params=sorted(CARRIERS))
def carrier(request):
    """``make(telemetry, batching=False)``: nodes ``n1``/``n2`` on the
    parametrised carrier, ``n2`` answering hardware calls; closed at
    teardown."""
    made = []

    def make(telemetry, batching=False):
        transport = CARRIERS[request.param](batching=batching)
        transport.sizes, transport.reply_sizes = [], []
        transport.attach_telemetry(telemetry)
        transport.register("n1")
        transport.register("n2", call_handler=lambda m: m.reply(
            MessageKind.HW_REPLY, payload=("ok", [m.payload])))
        made.append(transport)
        return transport

    yield make
    for transport in made:
        if hasattr(transport, "close"):
            transport.close()


def signal(index, payload, src="n1", dst="n2"):
    return Message(MessageKind.SIGNAL, src, dst, channel="ch",
                   time=float(index), payload=payload)


def drain(transport, name, count, timeout=5.0):
    """Poll ``name`` until ``count`` messages came (a socket carrier
    files them from its receiver threads)."""
    got = []
    deadline = _time.monotonic() + timeout
    while len(got) < count:
        assert _time.monotonic() < deadline, "messages still in flight"
        got.extend(transport.poll(name))
    return got


def filed(telemetry):
    return list(telemetry.trace_buffer), \
        record_dicts(telemetry.trace_buffer)


class TestMessageRecords:
    def test_unbatched_send_and_poll_receive(self, carrier):
        telemetry = Telemetry()
        transport = carrier(telemetry)
        payloads = [("engine", "bus", [1, {"k": index}]) for index in range(3)]
        sent = [signal(index, payload)
                for index, payload in enumerate(payloads)]
        for message in sent:
            transport.send(message)
        received = drain(transport, "n2", len(sent))
        records, flats = filed(telemetry)
        assert len(records) == 6
        for message, size, record, flat in zip(sent, transport.sizes,
                                               records, flats):
            assert_same(record, old_message_record(
                record, TraceKind.MSG_SEND, message,
                {"message_kind": "signal", "bytes": size}), flat)
        for message, record, flat in zip(received, records[3:], flats[3:]):
            assert_same(record, old_message_record(
                record, TraceKind.MSG_RECV, message,
                {"message_kind": "signal"}), flat)
        assert [r.seq for r in records] == list(range(1, 7))
        assert_holds_no_run_objects(telemetry.trace_buffer,
                                    payloads + sent + received)

    def test_batched_send(self, carrier):
        telemetry = Telemetry()
        transport = carrier(telemetry, batching=True)
        payloads = [("engine", "clk", index) for index in range(2)] \
            + [("engine", "bus", [2])]
        sent = [signal(index, payload)
                for index, payload in enumerate(payloads)]
        for message in sent:
            transport.send(message)
        received = drain(transport, "n2", len(sent))
        records, flats = filed(telemetry)
        for message, record, flat in zip(sent, records, flats):
            assert_same(record, old_message_record(
                record, TraceKind.MSG_SEND, message,
                {"message_kind": "signal", "batched": True}), flat)
        assert [r.kind for r in records[3:]] == [TraceKind.MSG_RECV] * 3
        assert_holds_no_run_objects(telemetry.trace_buffer,
                                    payloads + sent + received)

    def test_call_request_and_reply(self, carrier):
        telemetry = Telemetry()
        transport = carrier(telemetry)
        payload = ["read", 0x40]
        request = Message(MessageKind.HW_CALL, "n1", "n2", time=3.5,
                          payload=payload, request_id=7)
        reply = transport.call(request)
        (send, recv), (send_flat, recv_flat) = filed(telemetry)
        assert_same(send, old_message_record(
            send, TraceKind.MSG_SEND, request,
            {"message_kind": "hw-call", "bytes": transport.sizes[0],
             "call": True}), send_flat)
        assert_same(recv, old_message_record(
            recv, TraceKind.MSG_RECV, reply,
            {"message_kind": "hw-reply",
             "bytes": transport.reply_sizes[0], "call": True},
            request=request), recv_flat)
        assert recv.details["span"] == ("n1", 0, 1)
        assert_holds_no_run_objects(telemetry.trace_buffer,
                                    [payload, request, reply,
                                     reply.payload])

    def test_untraced_call_files_no_span(self, carrier):
        telemetry = Telemetry()
        transport = carrier(telemetry)
        transport.register("n3", call_handler=lambda m: m.reply(
            MessageKind.SAFE_TIME_REPLY, time=2.0, payload=(1, 0)))
        request = Message(MessageKind.SAFE_TIME_REQUEST, "n1", "n3",
                          channel="ch", time=1.0, payload=("ss", 1.0))
        reply = transport.call(request)
        send, recv = telemetry.trace_buffer
        assert list(send.details) == ["message_kind", "bytes", "call"]
        assert_same(recv, old_message_record(
            recv, TraceKind.MSG_RECV, reply,
            {"message_kind": "safe-time-reply",
             "bytes": transport.reply_sizes[0], "call": True},
            request=request))

    def test_a_restamped_epoch_does_not_reach_a_filed_record(self, carrier):
        telemetry = Telemetry()
        transport = carrier(telemetry)
        message = signal(1, ("engine", "clk", 1))
        transport.send(message)
        message.epoch = 5       # what a later migration stamp would do
        record, = telemetry.trace_buffer
        assert record.details["span"] == ("n1", 0, 1)


# ----------------------------------------------------------------------
# caused dispatch and stall
# ----------------------------------------------------------------------

def control_subsystem(telemetry, steps):
    """A bare subsystem on ``telemetry`` with one no-op CONTROL event per
    ``(time, cause)`` step."""
    subsystem = Subsystem("ss")
    subsystem.attach_telemetry(telemetry)
    for time, cause in steps:
        subsystem.scheduler.schedule(Event(
            Timestamp(time), EventKind.CONTROL, lambda event: None,
            cause=cause))
    return subsystem


class TestSchedulerRecords:
    def test_caused_dispatch(self):
        telemetry = Telemetry()
        subsystem = control_subsystem(telemetry, [
            (1.0, None), (2.0, CAUSE), (2.0, None), (4.0, ("n-w", 2, 9))])
        subsystem.scheduler.run()
        records, flats = filed(telemetry)
        olds = [TraceRecord(record.seq, TraceKind.DISPATCH, time, "ss",
                            {"event": "control", "cause": cause,
                             "before": before}, record.wall)
                for record, (time, cause, before) in zip(records, [
                    (2.0, CAUSE, 1.0), (4.0, ("n-w", 2, 9), 2.0)])]
        assert len(records) == len(olds) == 2
        for record, old, flat in zip(records, olds, flats):
            assert_same(record, old, flat)
        assert_holds_no_run_objects(telemetry.trace_buffer)

    @pytest.mark.parametrize("cause", [CAUSE, None])
    def test_stall(self, cause):
        telemetry = Telemetry()
        subsystem = control_subsystem(telemetry,
                                      [(1.0, None), (5.0, cause)])
        subsystem.scheduler.run(10.0, horizon=3.0)
        (record,), (flat,) = filed(telemetry)
        details = {"horizon": 3.0, "next_event": 5.0}
        if cause is not None:
            details["cause"] = cause
        old = TraceRecord(record.seq, TraceKind.STALL, 1.0, "ss", details,
                          record.wall)
        assert_same(record, old, flat)
        # One record, in both rings: the black box reads what the trace does.
        assert list(telemetry.flight) == [old]
        assert_holds_no_run_objects(telemetry.flight)

    def test_a_dark_stall_goes_to_the_black_box_alone(self):
        telemetry = Telemetry(enabled=False)
        subsystem = control_subsystem(telemetry, [(5.0, None)])
        subsystem.scheduler.run(10.0, horizon=3.0)
        assert len(telemetry.trace_buffer) == 0
        record, = telemetry.flight
        assert record == TraceRecord(0, TraceKind.STALL, 0.0, "ss",
                                     {"horizon": 3.0, "next_event": 5.0})
        assert [line["kind"] for line in record_dicts(telemetry.flight)] \
            == [TraceKind.STALL]


# ----------------------------------------------------------------------
# the ring
# ----------------------------------------------------------------------

class TestEviction:
    def test_capacity_eight_keeps_count_and_kinds_in_step(self):
        telemetry = Telemetry(trace_capacity=8)
        transport = InMemoryTransport()
        transport.attach_telemetry(telemetry)
        transport.register("n1")
        transport.register("n2")
        for index in range(5):
            transport.send(signal(index, ("engine", "clk", index)))
            telemetry.trace(TraceKind.GRANT, time=float(index),
                            subject="ss", grant=index)
        transport.poll("n2")
        ring = telemetry.trace_buffer
        assert ring.appended == 15 and ring.dropped == 7 and len(ring) == 8
        records = list(ring)
        assert [r.seq for r in records] == list(range(8, 16))
        counts = ring.counts_by_kind()
        assert counts == dict(sorted(Counter(r.kind for r in records).items()))
        assert counts == {TraceKind.GRANT: 2, TraceKind.MSG_RECV: 5,
                          TraceKind.MSG_SEND: 1}
        assert record_dicts(ring) == [dict(r.to_dict(), wall=r.wall)
                                      for r in records]


# ----------------------------------------------------------------------
# a whole threaded run
# ----------------------------------------------------------------------

#: Every detail-key order a per-event kind is filed with.
SHAPES = {
    TraceKind.MSG_SEND: {("message_kind", "bytes", "span", "parent"),
                         ("message_kind", "batched", "span", "parent"),
                         ("message_kind", "bytes", "call"),
                         ("message_kind", "bytes", "call", "span", "parent")},
    TraceKind.MSG_RECV: {("message_kind", "span", "parent"),
                         ("message_kind", "bytes", "call"),
                         ("message_kind", "bytes", "call", "span", "parent")},
    TraceKind.DISPATCH: {("event", "cause", "before")},
    TraceKind.STALL: {("horizon", "next_event"),
                      ("horizon", "next_event", "cause")},
}


@pytest.mark.parametrize("carrier_name, batching",
                         [("tcp", False), ("inmemory", True)])
def test_a_threaded_two_way_run_reads_back_whole(carrier_name, batching):
    transport = CARRIERS[carrier_name](batching=batching)
    transport.sizes, transport.reply_sizes = [], []
    cosim = build(streaming_pair_spec(60, 1.0), "threaded",
                  transport=transport, batching=batching)
    consumer, = (subsystem for subsystem in cosim.subsystems.values()
                 if "consumer" in subsystem.components)
    consumer.component("consumer").port("in").direction = PortDirection.INOUT
    try:
        cosim.run()
    finally:
        if hasattr(transport, "close"):
            transport.close()
    ring = cosim.telemetry.trace_buffer
    records = list(ring)
    shapes = Counter((record.kind, tuple(record.details))
                     for record in records if record.kind in SHAPES)
    assert set(shapes) <= {(kind, shape) for kind, kinds in SHAPES.items()
                           for shape in kinds}
    # Every kind, and the send, call and poll shapes, are on the path.
    assert {kind for kind, __ in shapes} == set(SHAPES)
    assert shapes[TraceKind.MSG_SEND, ("message_kind", "bytes", "call")] > 0
    assert shapes[TraceKind.MSG_RECV, ("message_kind", "span", "parent")] \
        == shapes[TraceKind.DISPATCH, ("event", "cause", "before")] == 60
    assert record_dicts(ring) == [dict(r.to_dict(), wall=r.wall)
                                  for r in records]
    assert [list(flat) for flat in record_dicts(ring)] \
        == [list(dict(r.to_dict(), wall=r.wall)) for r in records]
    assert_holds_no_run_objects(ring)
