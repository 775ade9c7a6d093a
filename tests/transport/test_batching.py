"""The batched fast path: coalescing, accounting, grants, copy elision.

Unit-level coverage for ISSUE 3's tentpole — :class:`SendBatcher` queue
bookkeeping, :class:`BatchFrame` wire format, per-frame accounting (one
latency charge no matter how many messages ride along), grant-push
frames, and the copy-elision rule (immutable payloads are shared, not
deep-copied, through the simulated wire).
"""

import pytest

from repro.core import TransportError
from repro.core.fastcopy import is_immutable
from repro.observability import Telemetry
from repro.transport import (
    LAN,
    InMemoryTransport,
    LatencyModel,
    Message,
    MessageKind,
    NetworkAccounting,
    TcpTransport,
)
from repro.transport.batch import SendBatcher
from repro.transport.codec import decode_any, encode, encode_batch
from repro.transport.message import BatchFrame

from .test_transport import _msg, _poll_until


class TestSendBatcher:
    def test_enqueue_preserves_send_order(self):
        batcher = SendBatcher()
        for i in range(5):
            batcher.enqueue("a", "b", _msg(payload=i))
        [(key, members)] = batcher.take()
        assert key == ("a", "b")
        assert [m.payload for m in members] == list(range(5))

    def test_take_is_sorted_and_filtered(self):
        batcher = SendBatcher()
        batcher.enqueue("b", "c", _msg(src="b", dst="c"))
        batcher.enqueue("a", "c", _msg(src="a", dst="c"))
        batcher.enqueue("a", "d", _msg(src="a", dst="d"))
        keys = [key for key, __ in batcher.take(dst="c")]
        assert keys == [("a", "c"), ("b", "c")]   # deterministic order
        assert batcher.pending() == 1             # ("a", "d") untouched
        assert batcher.pending("d") == 1

    def test_take_removes_what_it_returns(self):
        batcher = SendBatcher()
        batcher.enqueue("a", "b", _msg())
        assert batcher.take()
        assert batcher.take() == []
        assert batcher.pending() == 0

    def test_clear_by_node_touches_both_directions(self):
        batcher = SendBatcher()
        batcher.enqueue("a", "b", _msg())
        batcher.enqueue("b", "a", _msg(src="b", dst="a"))
        batcher.enqueue("c", "d", _msg(src="c", dst="d"))
        assert batcher.clear("a") == 2
        assert batcher.pending() == 1
        assert batcher.clear() == 1


class TestBatchFrameWireFormat:
    def test_roundtrip(self):
        frame = BatchFrame("a", "b",
                           [_msg(payload=i) for i in range(3)],
                           [_msg(kind=MessageKind.SAFE_TIME_GRANT)])
        again = decode_any(encode_batch(frame))
        assert isinstance(again, BatchFrame)
        assert (again.src, again.dst) == ("a", "b")
        assert [m.payload for m in again.messages] == [0, 1, 2]
        assert len(again) == 4

    def test_decode_any_accepts_plain_messages(self):
        single = decode_any(encode(_msg(payload="x")))
        assert isinstance(single, Message)
        assert single.payload == "x"

    def test_decode_any_rejects_foreign_objects(self):
        import pickle
        with pytest.raises(TransportError):
            decode_any(pickle.dumps({"not": "a frame"}))

    def test_unpicklable_batch_raises_transport_error(self):
        bad = BatchFrame("a", "b", [_msg(payload=lambda: None)])
        with pytest.raises(TransportError):
            encode_batch(bad)


class TestFrameAccounting:
    def test_one_frame_many_messages_one_latency_charge(self):
        model = LatencyModel("m", latency=0.5)
        batched = NetworkAccounting(model)
        batched.charge("a", "b", 1000, 8)
        unbatched = NetworkAccounting(model)
        for __ in range(8):
            unbatched.charge("a", "b", 125)
        assert batched.total_messages == unbatched.total_messages == 8
        assert batched.total_bytes == unbatched.total_bytes == 1000
        assert batched.total_frames == 1
        assert unbatched.total_frames == 8
        assert batched.total_delay == pytest.approx(0.5)
        assert unbatched.total_delay == pytest.approx(4.0)

    def test_frame_telemetry_counters(self):
        telemetry = Telemetry()
        acc = NetworkAccounting(LAN)
        acc.telemetry = telemetry
        acc.charge("a", "b", 640, 4)
        counters = telemetry.registry.counters
        assert counters["transport.frames_sent"].value == 1
        assert counters["transport.messages"].value == 4
        assert counters["transport.bytes_on_wire"].value == 640
        hist = telemetry.registry.histograms["transport.batch_size"]
        assert hist.count == 1 and hist.max == 4

    def test_grant_only_frames_skip_the_batch_size_histogram(self):
        telemetry = Telemetry()
        acc = NetworkAccounting(LAN)
        acc.telemetry = telemetry
        acc.charge("a", "b", 128, 0)
        assert telemetry.registry.counters["transport.frames_sent"].value == 1
        assert "transport.batch_size" not in telemetry.registry.histograms


class TestInMemoryBatching:
    def _transport(self):
        t = InMemoryTransport(batching=True)
        t.register("a")
        t.register("b")
        return t

    def test_sends_coalesce_into_one_frame_at_poll(self):
        t = self._transport()
        for i in range(6):
            t.send(_msg(payload=i))
        assert t.pending("b") == 6            # queued, not yet on the wire
        assert t.accounting.total_frames == 0
        got = [m.payload for m in t.poll("b")]
        assert got == list(range(6))          # FIFO preserved
        assert t.accounting.total_frames == 1
        assert t.accounting.total_messages == 6

    def test_frame_bytes_smaller_than_per_message_frames(self):
        batched = self._transport()
        plain = InMemoryTransport()
        plain.register("a")
        plain.register("b")
        for i in range(10):
            batched.send(_msg(payload=("tick", i)))
            plain.send(_msg(payload=("tick", i)))
        batched.poll("b")
        plain.poll("b")
        assert batched.accounting.total_bytes < plain.accounting.total_bytes

    def test_call_flushes_both_directions_first(self):
        t = self._transport()
        seen = []
        t._call_handlers["b"] = lambda m: (
            seen.append((t.batcher.pending(), len(t._inboxes["b"]))),
            m.reply(MessageKind.SAFE_TIME_REPLY, time=0.0))[1]
        t.send(_msg(payload="queued"))
        t.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))
        # the queued data message crossed the wire before the handler ran:
        # the batch queue was empty and b's inbox held the data message.
        assert seen == [(0, 1)]

    def test_push_grants_delivers_a_zero_message_frame(self):
        t = self._transport()
        grant = Message(kind=MessageKind.SAFE_TIME_GRANT, src="a", dst="b",
                        channel="ch", time=3.0, payload=(1, 1))
        assert t.push_grants("a", "b", [grant])
        assert t.accounting.total_frames == 1
        assert t.accounting.total_messages == 0
        got = t.poll("b")
        assert [m.kind for m in got] == [MessageKind.SAFE_TIME_GRANT]

    def test_push_grants_refused_when_not_applicable(self):
        t = self._transport()
        grant = Message(kind=MessageKind.SAFE_TIME_GRANT, src="a", dst="b",
                        channel="ch", time=1.0)
        assert not t.push_grants("a", "b", [])          # nothing to push
        assert not t.push_grants("a", "ghost", [grant])  # unknown dst
        t.batching = False
        assert not t.push_grants("a", "b", [grant])      # batching off
        assert t.accounting.total_frames == 0


class TestCopyElision:
    def test_mutable_payloads_still_isolated(self):
        """Batching must not weaken the wire-simulation guarantee for
        payloads that could actually be aliased."""
        t = InMemoryTransport(batching=True)
        t.register("a")
        t.register("b")
        payload = {"mutable": [1, 2]}
        assert not is_immutable(payload)
        t.send(_msg(payload=payload))
        payload["mutable"].append(3)          # mutate after send
        delivered = t.poll("b")[0].payload
        assert delivered["mutable"] == [1, 2]

    def test_immutable_payloads_are_shared_not_copied(self):
        t = InMemoryTransport(batching=True)
        t.register("a")
        t.register("b")
        payload = ("word", 17, b"bytes")
        assert is_immutable(payload)
        t.send(_msg(payload=payload))
        delivered = t.poll("b")[0].payload
        assert delivered is payload           # elided the encode/decode

    def test_elision_does_not_require_batching(self):
        """The per-message path follows the same rule: an immutable
        payload is handed through, a mutable one is isolated — and both
        are weighed by their encode."""
        t = InMemoryTransport()
        t.register("a")
        t.register("b")
        shared = ("word", 17)
        t.send(_msg(payload=shared))
        assert t.poll("b")[0].payload is shared
        mutable = [1, [2, 3]]
        t.send(_msg(payload=mutable))
        mutable[1].append(4)                   # mutate after send
        delivered = t.poll("b")[0].payload
        assert delivered == [1, [2, 3]] and delivered is not mutable
        link = t.accounting.links[("a", "b")]
        assert (link.messages, link.bytes) == (2, sum(
            len(encode(_msg(payload=p))) for p in (shared, [1, [2, 3]])))

    def test_a_call_reply_follows_the_same_rule(self):
        t = InMemoryTransport()
        t.register("a")
        replies = []

        def handler(request):
            payload = (3, 4) if not replies else [3, 4]
            replies.append(request.reply(MessageKind.SAFE_TIME_REPLY,
                                         time=2.0, payload=payload))
            return replies[-1]

        t.register("b", call_handler=handler)
        shared = t.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))
        assert shared is replies[0]
        isolated = t.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))
        assert isolated is not replies[1]
        replies[1].payload.append(5)           # the handler's copy moves on
        assert isolated.payload == [3, 4]


class TestTcpBatching:
    def test_coalesced_sends_arrive_in_order(self):
        with TcpTransport() as t:
            t.batching = True
            t.register("a")
            t.register("b")
            for i in range(10):
                t.send(_msg(payload=i))
            got = _poll_until(t, "b", 10)
            assert [m.payload for m in got] == list(range(10))
            link = t.accounting.links[("a", "b")]
            assert link.messages == 10
            assert link.frames < 10           # genuinely coalesced

    def test_push_grants_over_sockets(self):
        with TcpTransport() as t:
            t.batching = True
            t.register("a")
            t.register("b")
            grant = Message(kind=MessageKind.SAFE_TIME_GRANT, src="a",
                            dst="b", channel="ch", time=2.0, payload=(0, 0))
            assert t.push_grants("a", "b", [grant])
            got = _poll_until(t, "b", 1)
            assert got[0].kind is MessageKind.SAFE_TIME_GRANT
