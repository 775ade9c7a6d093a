"""Causal span minting, propagation invariants, and chain linking."""

import json

from repro.observability import (
    SpanMinter,
    Telemetry,
    TraceKind,
    causal_chains,
    span_name,
)
from repro.observability.spans import span_of
from repro.transport import InMemoryTransport
from repro.transport.message import Message, MessageKind


def msg(kind=MessageKind.SIGNAL, src="n1", dst="n2", **kwargs):
    return Message(kind=kind, src=src, dst=dst, channel="ch",
                   time=1.0, **kwargs)


class TestSpanMinter:
    def test_root_context_shape(self):
        assert SpanMinter().mint("n1") == (1, None)

    def test_child_points_at_its_cause(self):
        minter = SpanMinter()
        minter.mint("n1")
        assert minter.mint("n2", cause=("n1", 0, 1)) == (1, ("n1", 0, 1))

    def test_ordinal_streams_are_per_origin(self):
        minter = SpanMinter()
        assert [minter.mint(n)[0] for n in ("n1", "n2", "n1")] == [1, 1, 2]

    def test_deterministic_across_instances(self):
        a, b = SpanMinter(), SpanMinter()
        seq = ["n1", "n1", "n2", "n1"]
        assert [a.mint(n) for n in seq] == [b.mint(n) for n in seq]

    def test_ordinal_hand_off_continues_the_stream(self):
        moved = SpanMinter()
        moved.load_ordinals({"n1": 4})
        assert moved.mint("n1") == (5, None)
        assert moved.ordinals() == {"n1": 5}


def transport_pair(telemetry):
    """Two registered nodes on one in-memory transport feeding
    ``telemetry``; ``n2`` answers hardware calls."""
    transport = InMemoryTransport()
    transport.attach_telemetry(telemetry)
    transport.register("n1")
    transport.register("n2", call_handler=lambda m: m.reply(
        MessageKind.HW_REPLY, payload="ok"))
    return transport


class TestMintAtSend:
    """The send boundary mints a message's context, once."""

    def test_mints_once_and_is_idempotent(self):
        transport = transport_pair(Telemetry())
        message = msg()
        transport.send(message)
        first = message.trace
        transport.send(message)     # a retry re-entering the pipeline
        assert first is not None
        assert message.trace == first == (1, None)

    def test_safe_time_kinds_never_minted(self):
        transport = transport_pair(Telemetry())
        untraced = {MessageKind.SAFE_TIME_REQUEST,
                    MessageKind.SAFE_TIME_REPLY,
                    MessageKind.SAFE_TIME_GRANT}
        assert {kind for kind in MessageKind if kind.untraced} == untraced
        for kind in untraced:
            message = msg(kind=kind)
            transport.send(message)
            assert message.trace is None

    def test_child_of_current_cause(self):
        telemetry = Telemetry()
        transport = transport_pair(telemetry)
        telemetry.cause_cell.value = ("n9", 0, 1)
        message = msg(src="n1")
        transport.send(message)
        telemetry.cause_cell.value = None
        assert message.trace == (1, ("n9", 0, 1))

    def test_dark_telemetry_mints_nothing(self):
        telemetry = Telemetry(enabled=False)
        message = msg()
        transport_pair(telemetry).send(message)
        assert message.trace is None
        assert telemetry.spans.ordinals() == {}

    def test_reply_carries_no_context(self):
        request = msg(kind=MessageKind.HW_CALL, request_id=5)
        reply = transport_pair(Telemetry()).call(request)
        assert request.trace is not None
        assert reply.trace is None

    def test_call_reply_is_filed_under_the_request_span(self):
        telemetry = Telemetry()
        transport_pair(telemetry).call(msg(kind=MessageKind.HW_CALL))
        send, recv = (record.details for record in telemetry.trace_buffer)
        assert send["span"] == recv["span"] == ("n1", 0, 1)
        assert recv["message_kind"] == "hw-reply"
        chains = causal_chains(telemetry.trace_buffer)
        assert chains["orphan_receives"] == []
        assert len(chains["receives"]["n1:1"]) == 1


class TestInjectCarriesTheSpan:
    """A received signal's span goes straight to ``inject`` as an
    argument: its injected events carry it when the receiver is lit, and
    ``None`` when it is dark; the cause cell is never written on the
    way, so it reads ``None`` all through ``PiaNode.dispatch``."""

    def run_pair(self, monkeypatch, *, lit=True, dark_at_receive=False):
        """``(span of each received signal, causes of the events its
        inject scheduled, cause-cell reads inside dispatch)``."""
        from repro.bench.workloads import streaming_pair
        from repro.core.scheduler import Scheduler
        from repro.distributed.channel import ChannelEndpoint
        from repro.distributed.node import PiaNode

        cosim = streaming_pair(5, 1.0)
        telemetry = cosim.telemetry
        if not lit:
            telemetry.disable()
        cell = telemetry.cause_cell
        spans, injected, cells = [], [], []
        schedule, inject = Scheduler.schedule, ChannelEndpoint.inject
        dispatch = PiaNode.dispatch

        def observing_dispatch(self, message):
            cells.append(cell.value)
            dispatch(self, message)
            cells.append(cell.value)

        def observe(endpoint, message):
            cells.append(cell.value)
            spans.append(span_of(message))
            if dark_at_receive:
                telemetry.disable()

        current = []    # causes scheduled by the inject under way

        def observing_inject(self, net, time, value, cause):
            cells.append(cell.value)
            current.append([])
            try:
                inject(self, net, time, value, cause)
            finally:
                injected.append(current.pop())
            cells.append(cell.value)

        def observing_schedule(self, event):
            if current:
                current[-1].append(event.cause)
            return schedule(self, event)

        monkeypatch.setattr(PiaNode, "dispatch", observing_dispatch)
        monkeypatch.setattr(ChannelEndpoint, "inject", observing_inject)
        monkeypatch.setattr(Scheduler, "schedule", observing_schedule)
        for node in cosim.nodes.values():
            node.signal_observers.append(observe)
        cosim.run()
        return spans, injected, cells

    def test_lit_injected_events_carry_the_message_span(self, monkeypatch):
        spans, injected, cells = self.run_pair(monkeypatch)
        assert len(spans) == len(injected) == 5
        assert all(span is not None for span in spans)
        assert [set(causes) for causes in injected] \
            == [{span} for span in spans]
        assert cells and set(cells) == {None}

    def test_dark_injected_events_carry_none(self, monkeypatch):
        spans, injected, cells = self.run_pair(monkeypatch, lit=False)
        assert spans == [None] * 5
        assert [set(causes) for causes in injected] == [{None}] * 5
        assert set(cells) == {None}

    def test_a_traced_message_injected_dark_carries_none(self, monkeypatch):
        spans, injected, cells = self.run_pair(monkeypatch,
                                               dark_at_receive=True)
        assert spans[0] is not None
        assert [set(causes) for causes in injected] == [{None}] * 5
        assert set(cells) == {None}


class TestHelpers:
    def test_span_of_reads_origin_and_epoch_off_the_message(self):
        assert span_of(msg(src="n-w0", epoch=2, trace=(7, None))) \
            == ("n-w0", 2, 7)
        assert span_of(msg()) is None

    def test_span_name_renders_the_epoch_namespace(self):
        assert span_name(("n-w0", 0, 12)) == "n-w0:12"
        assert span_name(("n-w0", 3, 12)) == "n-w0@e3:12"

    def test_origin_is_a_field_not_a_prefix(self):
        # An origin may itself contain colons; a JSON round-trip makes
        # the span a list, which renders the same.
        assert span_name(["host:8", 0, 3]) == "host:8:3"
        assert span_name(json.loads(json.dumps(("host:8", 1, 3)))) \
            == "host:8@e1:3"


def sp(name):
    """``"origin:ordinal"`` as the span tuple a record carries."""
    origin, ordinal = name.rsplit(":", 1)
    return (origin, 0, int(ordinal))


class TestCausalChains:
    def send(self, span, parent=None):
        return {"kind": TraceKind.MSG_SEND, "time": 1.0, "subject": "a->b",
                "span": sp(span),
                "parent": None if parent is None else sp(parent)}

    def recv(self, span):
        return {"kind": TraceKind.MSG_RECV, "time": 1.0, "subject": "a->b",
                "span": sp(span)}

    def test_links_sends_to_receives(self):
        chains = causal_chains([self.send("n1:1"), self.recv("n1:1")])
        assert set(chains["sends"]) == {"n1:1"}
        assert len(chains["receives"]["n1:1"]) == 1
        assert chains["orphan_receives"] == []
        assert chains["broken_parents"] == []

    def test_orphan_receive_detected(self):
        chains = causal_chains([self.recv("ghost:1")])
        assert len(chains["orphan_receives"]) == 1

    def test_duplicate_deliveries_share_span_not_orphans(self):
        chains = causal_chains(
            [self.send("n1:1"), self.recv("n1:1"), self.recv("n1:1")])
        assert len(chains["receives"]["n1:1"]) == 2
        assert chains["orphan_receives"] == []

    def test_broken_parent_detected_and_roots_its_own_chain(self):
        chains = causal_chains([
            self.send("n1:1"),
            self.send("n2:1", parent="n1:1"),
            self.send("n2:2", parent="missing:9"),
        ])
        assert [r["span"] for r in chains["broken_parents"]] \
            == [("n2", 0, 2)]
        assert chains["trace_ids"]["n2:2"] == "n2:2"
        assert chains["hops"]["n2:2"] == 0
        assert chains["max_hop"] == 1

    def test_root_and_hop_derived_by_walking_parents(self):
        # Children recorded before their parents still resolve.
        chains = causal_chains([
            self.send("n1:2", parent="n2:1"),
            self.send("n2:1", parent="n1:1"),
            self.send("n1:1"),
            self.send("n3:1"),
            self.send("n3:2", parent="n1:1"),
        ])
        assert chains["hops"] == {"n1:2": 2, "n2:1": 1, "n1:1": 0,
                                  "n3:1": 0, "n3:2": 1}
        assert chains["trace_ids"] == {"n1:2": "n1:1", "n2:1": "n1:1",
                                       "n1:1": "n1:1", "n3:1": "n3:1",
                                       "n3:2": "n1:1"}
        assert chains["max_hop"] == 2

    def test_json_round_trip_links_the_same(self):
        records = [self.send("n1:1"), self.send("n2:1", parent="n1:1"),
                   self.recv("n2:1")]
        loaded = json.loads(json.dumps(records))
        again, chains = causal_chains(loaded), causal_chains(records)
        for key in ("trace_ids", "hops", "max_hop"):
            assert again[key] == chains[key]
        assert again["orphan_receives"] == again["broken_parents"] == []

    def test_untraced_records_ignored(self):
        chains = causal_chains([
            {"kind": TraceKind.MSG_RECV, "time": 0.0, "subject": "a->b"},
            {"kind": TraceKind.DISPATCH, "time": 0.0, "subject": "ss"},
        ])
        assert chains["sends"] == {}
        assert chains["orphan_receives"] == []
        assert chains["max_hop"] == 0
