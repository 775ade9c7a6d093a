"""One send pipeline, three carriers: what a transport does with a
message may not depend on what moves its bytes.

Every test here drives the same traffic through the in-memory, TCP and
shared-memory data planes (shm in the two-transport remote-peer shape,
which is what puts fault envelopes and the TCP call path on a real
boundary) with batching off and on, and compares the outcome with the
in-memory plane's: delivered order, accounting rows, fault counters and
trace streams.  The structural test pins the reason that holds: the
pipeline entry points are *one* function, not three in step.
"""

import time as _time

import pytest

from repro.core import TransportError
from repro.faults import FaultInjector, FaultPlan
from repro.observability import Telemetry
from repro.transport import (InMemoryTransport, Message, MessageKind,
                             TcpTransport, Transport)
from repro.transport.shm import SharedMemoryTransport, create_ring_segment

PLANES = ("inmemory", "tcp", "shm")
BATCHING = (False, True)

#: Payloads the protocol really ships, plus the awkward ones (time doubles
#: as the send index).
TRAFFIC = [
    ("engine", "clk", 1),
    ("engine", "clk", 2.5),
    ("engine", "bus", "väl-υε"),
    ("engine", "bus", b"\x00\x80\xff"),
    ("engine", "bus", ("nested", [1, None], {"k": True})),   # mutable
    ("engine", "bus", complex(2, 3)),                        # pickle fallback
]


class ScriptedPlan(FaultPlan):
    """Fates keyed ``(src, dst, link ordinal, attempt)`` instead of drawn
    from the hash stream, so one short script meets every fate."""

    def __init__(self, fates):
        super().__init__()
        self.fates = fates

    def decide(self, src, dst, seq, attempt, time):
        return self.fates.get((src, dst, seq, attempt), ("deliver", 0))


#: a->b: #2 dropped once then delivered, #3 duplicated, #4 delayed two
#: polls of b, #5 reordered behind #6.
FATES = {
    ("a", "b", 2, 0): ("drop", 0),
    ("a", "b", 3, 0): ("duplicate", 0),
    ("a", "b", 4, 0): ("delay", 2),
    ("a", "b", 5, 0): ("reorder", 0),
}


def _serve(request):
    return request.reply(MessageKind.SAFE_TIME_REPLY,
                         time=request.time + 1.0, payload=request.payload)


def _signal(index, src="a", dst="b"):
    return Message(MessageKind.SIGNAL, src, dst, channel="ch",
                   time=float(index), payload=TRAFFIC[index % len(TRAFFIC)])


def _grant(src, dst, time=9.0):
    return Message(MessageKind.SAFE_TIME_GRANT, src, dst, channel="ch",
                   time=time, payload=("sub", 3))


def _row(message):
    return (message.kind, message.src, message.dst, message.channel,
            message.time, message.payload, message.epoch)


class Plane:
    """Nodes ``a`` and ``b`` on one data plane, behind one face whether a
    single transport hosts both or (shm) each has its own."""

    def __init__(self, kind, batching, plan=None):
        self.telemetry = Telemetry()
        self.segments = []
        if kind == "inmemory":
            hosts = [InMemoryTransport(batching=batching)]
        elif kind == "tcp":
            hosts = [TcpTransport(batching=batching)]
        else:
            hosts = [SharedMemoryTransport(batching=batching),
                     SharedMemoryTransport(batching=batching)]
            # One ledger for the pair, as the coordinator's merge gives.
            hosts[1].accounting = hosts[0].accounting
        self.hosts = hosts
        self.home = {"a": hosts[0], "b": hosts[-1]}
        self.accounting = hosts[0].accounting
        self.injectors = []
        for host in hosts:
            host.attach_telemetry(self.telemetry)
            host.set_piggyback_provider(
                lambda src, dst: [_grant(src, dst)] if src == "a" else [])
            if plan is not None:
                self.injectors.append(FaultInjector(plan))
                host.attach_faults(self.injectors[-1])
        for name, host in self.home.items():
            host.register(name, call_handler=_serve)
        if kind == "shm":
            for src, dst in (("a", "b"), ("b", "a")):
                segment = create_ring_segment(64 * 1024)
                self.segments.append(segment)
                self.home[src].set_peer(dst, self.home[dst].local_port(dst))
                self.home[src].attach_outbound_ring(src, dst, segment.name)
                self.home[dst].attach_inbound_ring(src, dst, segment.name)

    def send(self, message):
        return self.home[message.src].send(message)

    def call(self, message):
        return self.home[message.src].call(message)

    def flush_batches(self):
        return sum(host.flush_batches() for host in self.hosts)

    def settle(self, timeout=5.0):
        """Wait — without polling, which would advance the fault plane's
        delay ticks — until every shipped frame has been filed."""
        deadline = _time.monotonic() + timeout
        while (sum(getattr(host, "wire_out", 0) for host in self.hosts)
               != sum(getattr(host, "wire_in", 0) for host in self.hosts)):
            assert _time.monotonic() < deadline, "frames still in flight"
            _time.sleep(0.001)

    def poll(self, name):
        self.settle()
        return [_row(m) for m in self.home[name].poll(name)]

    def fault_counts(self):
        merged = {}
        for injector in self.injectors:
            for name, count in injector.summary().items():
                merged[name] = merged.get(name, 0) + count
        return merged

    def traces(self):
        return [(record.kind, record.subject, sorted(record.details))
                for record in self.telemetry.trace_buffer]

    def close(self):
        for host in self.hosts:
            if hasattr(host, "close"):       # the deque carrier has none
                host.close()
        for segment in self.segments:
            segment.close()
            segment.unlink()


@pytest.fixture
def plane():
    """Factory for planes that are closed again at teardown."""
    made = []

    def make(kind, batching, plan=None):
        made.append(Plane(kind, batching, plan))
        return made[-1]

    yield make
    for one in made:
        one.close()


def _scenario(plane):
    """Sends under every fault fate, a call, batched flushes with
    piggybacked grants, ``push_grants``, ``pending`` and ``flush``."""
    out = {}
    for index in range(3):                   # deliver, drop+retry, duplicate
        plane.send(_signal(index))
    out["flushed.1"] = plane.flush_batches()
    out["poll.1"] = plane.poll("b")
    for index in range(3, 6):                # delay, reorder, deliver
        plane.send(_signal(index))
    out["flushed.2"] = plane.flush_batches()
    plane.settle()
    out["pending.b"] = plane.home["b"].pending("b")
    out["poll.2"] = plane.poll("b")          # #6 then #5; #4 still held
    out["reply"] = _row(plane.call(Message(
        MessageKind.SAFE_TIME_REQUEST, "a", "b", channel="ch", time=6.0,
        payload=("sub", 6.0), request_id=1)))
    out["poll.3"] = plane.poll("b")          # the delayed #4 is due
    out["pushed"] = plane.home["a"].push_grants(
        "a", "b", [_grant("a", "b", time=7.0)])
    out["poll.4"] = plane.poll("b")
    plane.send(_signal(7, src="b", dst="a"))
    plane.flush_batches()
    plane.settle()
    out["pending.a"] = plane.home["a"].pending("a")
    out["dropped"] = sum(host.flush() for host in plane.hosts)
    out["pending"] = sum(host.pending() for host in plane.hosts)
    out["links"] = plane.accounting.report()
    out["faults"] = plane.fault_counts()
    out["trace"] = [row[:2] for row in plane.traces()]
    return out


@pytest.mark.parametrize("batching", BATCHING)
@pytest.mark.parametrize("kind", PLANES)
def test_scripted_scenario_is_identical_on_every_carrier(plane, kind,
                                                         batching):
    plan = ScriptedPlan(FATES)
    reference = _scenario(plane("inmemory", batching, plan))
    outcome = _scenario(plane(kind, batching, plan))
    if kind == "shm" and batching:
        # Under batching, a fate on a link into another process is filed
        # at the receiver: the duplicate rides its frame as an envelope
        # (heavier than the bare second copy a local link enqueues) and
        # the reordered message is parked over there at once instead of
        # joining the sender's next batch.  Same frames, same deliveries;
        # not the same members per frame, nor the same bytes.
        for out in (reference, outcome):
            del out["flushed.2"]
            out["links"] = [row[:3] + row[6:] for row in out["links"]]
    for step in reference:
        assert outcome[step] == reference[step], step
    # ... and the script really met what it set out to meet.
    payloads = [row[5] for row in reference["poll.1"]
                if row[0] is MessageKind.SIGNAL]
    assert payloads == TRAFFIC[:3]           # the duplicate arrived once
    assert [row[4] for row in reference["poll.2"]
            if row[0] is MessageKind.SIGNAL] == [5.0, 4.0]
    assert [row[4] for row in reference["poll.3"]] == [3.0]
    assert reference["faults"] == {
        "fault.delays": 1, "fault.drops": 1, "fault.duplicates": 1,
        "fault.duplicates_suppressed": 1, "fault.reorders": 1,
        "retry.attempts": 1}
    assert reference["pushed"] is batching
    assert reference["pending.a"] == 1 and reference["dropped"] == 1
    assert reference["pending"] == 0
    grants = [row for step in ("poll.1", "poll.2", "poll.4")
              for row in reference[step]
              if row[0] is MessageKind.SAFE_TIME_GRANT]
    assert len(grants) == (3 if batching else 0)


@pytest.mark.parametrize("batching", BATCHING)
@pytest.mark.parametrize("kind", PLANES)
def test_traffic_decodes_identically(plane, kind, batching):
    """The wire really deep-copies: payload values *and* exact types
    survive every carrier intact, ids and epochs included."""
    def deliveries(one):
        sent = [_signal(index) for index in range(len(TRAFFIC))]
        for message in sent:
            one.send(message)
        one.flush_batches()
        one.settle()
        got = [m for m in one.home["b"].poll("b")
               if m.kind is MessageKind.SIGNAL]
        assert got[4].payload[2][1] is not sent[4].payload[2][1]
        return [_row(m) + (m.msg_id,) for m in got]

    reference = deliveries(plane("inmemory", batching))
    assert deliveries(plane(kind, batching)) == reference
    assert len(reference) == len(TRAFFIC)
    for row in reference:
        sent = TRAFFIC[int(row[4])]
        assert row[5] == sent
        assert type(row[5][2]) is type(sent[2])


@pytest.mark.parametrize("batching", BATCHING)
@pytest.mark.parametrize("kind", PLANES)
def test_unknown_destination_charges_no_phantom_link(plane, kind, batching):
    """The destination is checked before anything is accounted or traced
    (the TCP carrier used to charge ``a->nope`` and then raise)."""
    one = plane(kind, batching)
    with pytest.raises(TransportError):
        one.home["a"].send(Message(MessageKind.SIGNAL, "a", "nope",
                                   channel="ch", payload=1))
    assert one.accounting.links == {}
    assert one.traces() == []
    assert one.home["a"].pending() == 0


@pytest.mark.parametrize("kind", PLANES)
def test_call_traces_and_charges_alike_on_every_carrier(plane, kind):
    """One ``call`` body: request and reply are both traced with their
    wire size, and the reply is charged from the frame that came back
    (the TCP carrier used to skip the request's MSG_SEND for untraced
    kinds, omit ``bytes=`` on the reply and re-encode it to weigh it)."""
    def one_call(one):
        reply = one.call(Message(
            MessageKind.SAFE_TIME_REQUEST, "a", "b", channel="ch",
            time=3.0, payload=("sub", 3.0), request_id=7))
        assert reply.time == 4.0
        return one.traces(), one.accounting.report()

    reference = one_call(plane("inmemory", False))
    assert one_call(plane(kind, False)) == reference
    traces, links = reference
    assert [(kind_, subject) for kind_, subject, __ in traces] == [
        ("msg-send", "a->b"), ("msg-recv", "b->a")]
    assert all({"bytes", "call"} <= set(details)
               for __, __, details in traces)
    assert [(row[0], row[1], row[3]) for row in links] == [
        ("a", "b", 1), ("b", "a", 1)]


ENTRY_POINTS = ("send", "poll", "call", "flush_batches", "push_grants",
                "pending", "flush", "ready")


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_carrier_runs_the_one_pipeline_function(name):
    shared = vars(Transport)[name]
    for carrier in (InMemoryTransport, TcpTransport, SharedMemoryTransport):
        assert getattr(carrier, name) is shared, carrier.__name__


def test_ledger_bound_names_live_in_the_inmemory_class_body():
    """``benchmarks/ledger/tracer.py`` binds ``vars(InMemoryTransport)``."""
    assert set(ENTRY_POINTS[:5]) <= set(vars(InMemoryTransport))


# ----------------------------------------------------------------------
# the ready set: who a sweep over nodes has to visit
# ----------------------------------------------------------------------
def test_a_queued_batch_makes_its_destination_ready(plane):
    """Nothing is in ``b``'s inbox yet — the frame ships at its poll —
    but a sweep that skipped ``b`` would never ship it."""
    host = plane("inmemory", True).home["a"]
    assert not host.ready("a") and not host.ready("b")
    host.send(_signal(0))
    assert host.ready("b") and not host.ready("a")
    assert not host._inbox("b")[0]
    assert [m.time for m in host.poll("b")
            if m.kind is MessageKind.SIGNAL] == [0.0]
    assert not host.ready("b")


@pytest.mark.parametrize("batching", BATCHING)
def test_a_message_in_the_inbox_makes_its_node_ready(plane, batching):
    host = plane("inmemory", batching).home["a"]
    host.send(_signal(0))
    host.flush_batches()
    assert host._inbox("b")[0] and host.ready("b")
    host.poll("b")
    assert not host.ready("b")


@pytest.mark.parametrize("fate, polls", [("delay", 3), ("reorder", 1)])
def test_a_held_delivery_keeps_its_destination_ready(plane, fate, polls):
    """The destination's polls are the fault plane's release clock: a
    node with parked traffic stays ready through empty polls and the
    delivery lands after exactly the polls the plan asked for (a swap
    whose follow-up send never comes goes at the next one)."""
    plan = ScriptedPlan({("a", "b", 1, 0): (fate, polls)})
    host = plane("inmemory", False, plan).home["a"]
    host.send(_signal(0))
    assert host.ready("b") and not host._inbox("b")[0]
    for __ in range(polls - 1):
        assert host.poll("b") == []
        assert host.ready("b")
    assert [m.time for m in host.poll("b")] == [0.0]
    assert not host.ready("b")
    assert host.pending() == 0


def test_flush_and_clear_leave_nobody_ready(plane):
    plan = ScriptedPlan({("a", "b", 2, 0): ("delay", 5),
                         ("b", "a", 1, 0): ("reorder", 0)})

    def loaded():
        host = plane("inmemory", True, plan).home["a"]
        host.send(_signal(0))                   # queued a->b
        host.send(_signal(1))                   # held for b
        host.send(_signal(2, src="b", dst="a"))     # swap-parked for a
        host.send(_signal(3, src="b", dst="a"))     # released behind: queued
        assert host.ready("a") and host.ready("b")
        return host

    host = loaded()
    assert host.flush() == 4
    assert not host.ready("a") and not host.ready("b")

    host = loaded()
    host.batcher.clear("b")                     # both queues touch b
    assert not host.batcher.queues and host.batcher.pending() == 0
    assert not host.ready("a")                  # its swap was taken at #3
    assert host.ready("b")                      # ... b's delay is still held
    host.fault_injector.flush()
    assert not host.ready("b")


def test_tcp_reports_a_frame_no_receiver_has_filed_yet(plane):
    one = plane("tcp", False)
    host = one.home["a"]
    inbox, lock = host._inbox("b")
    with lock:                                  # the receiver blocks here
        host.send(_signal(0))
        assert not inbox and host.ready("b")
        assert host.pending("b") == 1
    one.settle()
    assert inbox and host.ready("b")
    assert len(host.poll("b")) == 1
    assert not host.ready("b") and host.pending() == 0


def test_shm_reports_a_frame_still_in_the_ring(plane, monkeypatch):
    # No pump: what is written stays in the ring.
    monkeypatch.setattr(SharedMemoryTransport, "_pump",
                        lambda self, node: None)
    one = plane("shm", False)
    sender, receiver = one.home["a"], one.home["b"]
    assert not receiver.ready("b")
    sender.send(_signal(0))
    assert not receiver._inbox("b")[0]
    assert receiver.ready("b") and receiver.pending("b") == 1
