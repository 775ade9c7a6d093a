"""Transports: FIFO order, wire simulation, accounting, latency models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, TransportError
from repro.transport import (
    INTERNET,
    LAN,
    SAME_HOST,
    InMemoryTransport,
    LatencyModel,
    Message,
    MessageKind,
    NetworkAccounting,
    TcpTransport,
    decode,
    encode,
)


def _msg(src="a", dst="b", time=1.0, payload=None, kind=MessageKind.SIGNAL):
    return Message(kind=kind, src=src, dst=dst, channel="ch", time=time,
                   payload=payload)


class TestMessage:
    def test_encode_decode_roundtrip(self):
        msg = _msg(payload=("net", b"\x00\x01", 3))
        again = decode(encode(msg))
        assert again.payload == msg.payload
        assert again.kind == msg.kind
        assert again.time == msg.time

    def test_reply_swaps_endpoints_and_keeps_request_id(self):
        msg = Message(MessageKind.SAFE_TIME_REQUEST, "a", "b",
                      request_id=42, payload=("x", "y"))
        reply = msg.reply(MessageKind.SAFE_TIME_REPLY, time=7.0)
        assert (reply.src, reply.dst) == ("b", "a")
        assert reply.request_id == 42
        assert reply.time == 7.0

    def test_wire_size_grows_with_payload(self):
        small = len(encode(_msg(payload=b"x")))
        big = len(encode(_msg(payload=b"x" * 10_000)))
        assert big > small + 9_000

    def test_decode_garbage_raises(self):
        with pytest.raises(TransportError):
            decode(b"not a pickle")


class TestLatencyModels:
    def test_delay_formula(self):
        model = LatencyModel("m", latency=0.01, bandwidth=1000)
        assert model.delay(500) == pytest.approx(0.01 + 0.5)

    def test_presets(self):
        assert INTERNET.latency > LAN.latency > SAME_HOST.latency

    def test_invalid_models_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel("bad", latency=-1)
        with pytest.raises(ConfigurationError):
            LatencyModel("bad", latency=0, bandwidth=0)
        with pytest.raises(ConfigurationError):
            LatencyModel("bad", latency=0, jitter=1.5)

    def test_jitter_is_deterministic_and_bounded(self):
        model = LatencyModel("j", latency=0.01, jitter=0.2)
        delays = [model.delay(0, seq=i) for i in range(16)]
        assert delays[:8] == delays[8:]          # cyclic, reproducible
        for d in delays:
            assert 0.008 - 1e-12 <= d <= 0.012 + 1e-12

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_delay_monotone_in_size(self, size):
        model = LatencyModel("m", latency=0.001, bandwidth=1e6)
        assert model.delay(size + 1) >= model.delay(size)


class TestAccounting:
    def test_records_and_totals(self):
        acc = NetworkAccounting(SAME_HOST)
        acc.set_model("a", "b", LAN)
        acc.charge("a", "b", 1000)
        acc.charge("a", "b", 1000)
        acc.charge("b", "c", 10)      # default model
        assert acc.total_messages == 3
        assert acc.total_bytes == 2010
        assert acc.links[("a", "b")].model is LAN
        assert acc.links[("b", "c")].model is SAME_HOST

    def test_delay_accumulates(self):
        acc = NetworkAccounting(LatencyModel("m", latency=0.5))
        acc.charge("a", "b", 0)
        acc.charge("a", "b", 0)
        assert acc.total_delay == pytest.approx(1.0)

    def test_report_rows_sorted(self):
        acc = NetworkAccounting(SAME_HOST)
        acc.charge("b", "a", 1)
        acc.charge("a", "b", 1)
        rows = acc.report()
        assert [(r[0], r[1]) for r in rows] == [("a", "b"), ("b", "a")]

class TestInMemoryTransport:
    def test_fifo_per_link(self):
        t = InMemoryTransport()
        t.register("a")
        t.register("b")
        for i in range(10):
            t.send(_msg(payload=i))
        got = [m.payload for m in t.poll("b")]
        assert got == list(range(10))

    def test_wire_simulation_copies_payloads(self):
        t = InMemoryTransport()
        t.register("a")
        t.register("b")
        payload = {"mutable": [1, 2]}
        t.send(_msg(payload=payload))
        delivered = t.poll("b")[0].payload
        delivered["mutable"].append(3)
        assert payload["mutable"] == [1, 2]

    def test_unknown_destination(self):
        t = InMemoryTransport()
        t.register("a")
        with pytest.raises(TransportError):
            t.send(_msg(dst="ghost"))

    def test_call_roundtrip_and_accounting(self):
        t = InMemoryTransport()
        t.register("a")
        t.register("b", call_handler=lambda m: m.reply(
            MessageKind.SAFE_TIME_REPLY, time=m.time * 2))
        reply = t.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST, time=21.0))
        assert reply.time == 42.0
        # both directions charged
        assert t.accounting.links[("a", "b")].messages == 1
        assert t.accounting.links[("b", "a")].messages == 1

    def test_call_without_handler_raises(self):
        t = InMemoryTransport()
        t.register("a")
        t.register("b")
        with pytest.raises(TransportError):
            t.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))

    def test_pending_and_flush(self):
        t = InMemoryTransport()
        t.register("a")
        t.register("b")
        for i in range(4):
            t.send(_msg(payload=i))
        assert t.pending() == 4
        assert t.pending("b") == 4
        assert [m.payload for m in t.poll("b")] == [0, 1, 2, 3]
        t.send(_msg(payload=9))
        assert t.flush() == 1
        assert t.pending() == 0

    def test_duplicate_registration(self):
        t = InMemoryTransport()
        t.register("a")
        with pytest.raises(TransportError):
            t.register("a")

    def test_link_model_charged(self):
        t = InMemoryTransport()
        t.register("a")
        t.register("b")
        t.set_link("a", "b", INTERNET)
        delay = t.send(_msg(payload=b"x" * 1280))
        assert delay > INTERNET.latency


class TestTcpTransport:
    def test_send_and_poll_over_sockets(self):
        with TcpTransport() as t:
            t.register("a")
            t.register("b")
            t.send(_msg(payload=b"hello"))
            got = _poll_until(t, "b", 1)
            assert got[0].payload == b"hello"

    def test_fifo_over_one_connection(self):
        with TcpTransport() as t:
            t.register("a")
            t.register("b")
            for i in range(20):
                t.send(_msg(payload=i))
            got = _poll_until(t, "b", 20)
            assert [m.payload for m in got] == list(range(20))

    def test_call_roundtrip(self):
        with TcpTransport() as t:
            t.register("a")
            t.register("b", call_handler=lambda m: m.reply(
                MessageKind.SAFE_TIME_REPLY, time=m.time + 1))
            reply = t.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST, time=4.0))
            assert reply.time == 5.0

    def test_unknown_destination(self):
        with TcpTransport() as t:
            t.register("a")
            with pytest.raises(TransportError):
                t.send(_msg(dst="ghost"))


def _poll_until(transport, name, count, timeout=5.0):
    import time
    collected = []
    deadline = time.monotonic() + timeout
    while len(collected) < count and time.monotonic() < deadline:
        collected.extend(transport.poll(name))
        time.sleep(0.005)
    assert len(collected) >= count, f"only {len(collected)}/{count} arrived"
    return collected
