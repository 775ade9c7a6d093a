"""Shared-memory data plane: ring mechanics, spill ordering, lifecycle.

The ring itself is exercised in-process (both cursors visible to the
test); the transport tests wire two :class:`SharedMemoryTransport`
instances through a real shared-memory segment plus loopback TCP for
the spill path, mirroring how the multiprocess coordinator wires a run.
"""

import time

import pytest

from repro.core import TransportError
from repro.observability import Telemetry
from repro.transport import Message, MessageKind
from repro.transport.shm import (
    DEFAULT_RING_CAPACITY,
    SharedMemoryTransport,
    ShmRing,
    create_ring_segment,
    open_spill_envelope,
    spill_envelope,
)


def _msg(src="a", dst="b", time=1.0, payload=None):
    return Message(kind=MessageKind.SIGNAL, src=src, dst=dst, channel="ch",
                   time=time, payload=payload)


def _poll_until(transport, name, count, timeout=5.0):
    got = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        got.extend(transport.poll(name))
        if len(got) >= count:
            return got
        time.sleep(0.002)
    raise AssertionError(f"only {len(got)}/{count} messages arrived")


class TestShmRing:
    def test_roundtrip_and_empty(self):
        ring = create_ring_segment(1024)
        consumer = ShmRing(ring.name)
        try:
            assert consumer.try_read() is None
            assert ring.try_write(b"hello")
            assert consumer.try_read() == (0, b"hello")
            assert consumer.try_read() is None
        finally:
            consumer.close()
            ring.close()
            ring.unlink()

    def test_wraparound_preserves_frames_and_order(self):
        """Thousands of varied-size frames through a ring far smaller
        than their total: every frame crosses intact, in order, across
        many physical wraparounds."""
        ring = create_ring_segment(256)
        consumer = ShmRing(ring.name)
        try:
            expected = [bytes([index % 251]) * (1 + index % 97)
                        for index in range(2000)]
            pending = list(expected)
            got = []
            while pending or len(got) < len(expected):
                while pending and ring.try_write(pending[0]):
                    pending.pop(0)
                frame = consumer.try_read()
                if frame is not None:
                    got.append(frame[1])
            assert got == expected
        finally:
            consumer.close()
            ring.close()
            ring.unlink()

    def test_full_ring_refuses_then_recovers(self):
        ring = create_ring_segment(64)
        consumer = ShmRing(ring.name)
        try:
            assert ring.try_write(b"x" * 40)
            assert not ring.try_write(b"y" * 40)     # no room yet
            assert consumer.try_read() == (0, b"x" * 40)
            assert ring.try_write(b"y" * 40)         # drained: fits now
            assert consumer.try_read() == (0, b"y" * 40)
        finally:
            consumer.close()
            ring.close()
            ring.unlink()

    def test_fits_ever_matches_capacity(self):
        ring = create_ring_segment(64)
        try:
            # 4-byte length prefix + 1 type byte + body must fit.
            assert ring.fits_ever(59)
            assert not ring.fits_ever(60)
        finally:
            ring.close()
            ring.unlink()

    def test_frame_type_tag_travels(self):
        ring = create_ring_segment(128)
        consumer = ShmRing(ring.name)
        try:
            assert ring.try_write(b"marker", frame_type=1)
            assert consumer.try_read() == (1, b"marker")
        finally:
            consumer.close()
            ring.close()
            ring.unlink()


class TestSpillEnvelope:
    def test_roundtrip(self):
        envelope = spill_envelope("a", "b", 7, b"payload")
        assert open_spill_envelope(envelope) == (7, b"payload")

    def test_ordinary_messages_are_not_spills(self):
        assert open_spill_envelope(_msg()) is None
        control = Message(kind=MessageKind.CONTROL, src="a", dst="b",
                          payload=("something-else", 1, b""))
        assert open_spill_envelope(control) is None


class TestSharedMemoryTransport:
    def _pair(self, ring_capacity=DEFAULT_RING_CAPACITY):
        """Two transports, an a->b ring between them, TCP both ways (the
        ring's capacity is the segment's: the transports only attach)."""
        t_a = SharedMemoryTransport()
        t_b = SharedMemoryTransport()
        t_a.register("a")
        t_b.register("b")
        t_a.set_peer("b", t_b.local_port("b"))
        t_b.set_peer("a", t_a.local_port("a"))
        segment = create_ring_segment(ring_capacity)
        t_a.attach_outbound_ring("a", "b", segment.name)
        t_b.attach_inbound_ring("a", "b", segment.name)
        return t_a, t_b, segment

    def _teardown(self, t_a, t_b, segment):
        t_a.close()
        t_b.close()
        segment.close()
        segment.unlink()

    def test_ring_delivery_and_accounting(self):
        telemetry = Telemetry()
        t_a, t_b, segment = self._pair()
        t_a.attach_telemetry(telemetry)
        try:
            for index in range(5):
                t_a.send(_msg(time=float(index), payload=index))
            got = _poll_until(t_b, "b", 5)
            assert [m.payload for m in got] == list(range(5))
            counters = telemetry.registry.snapshot()["counters"]
            assert counters["transport.shm_frames"] == 5
            assert counters["transport.shm_bytes"] > 0
            # Wire counters keep balancing across the shm path, so the
            # multiprocess quiescence probe works unchanged.
            assert t_a.wire_out == 5
            assert t_b.wire_in == 5
        finally:
            self._teardown(t_a, t_b, segment)

    def test_oversized_frame_spills_over_tcp_in_order(self):
        telemetry = Telemetry()
        t_a, t_b, segment = self._pair(ring_capacity=2048)
        t_a.attach_telemetry(telemetry)
        try:
            t_a.send(_msg(time=1.0, payload="before"))
            t_a.send(_msg(time=2.0, payload="x" * 65536))  # cannot ever fit
            t_a.send(_msg(time=3.0, payload="after"))
            got = _poll_until(t_b, "b", 3)
            assert [m.time for m in got] == [1.0, 2.0, 3.0]
            assert got[1].payload == "x" * 65536
            counters = telemetry.registry.snapshot()["counters"]
            assert counters["transport.shm_spills"] == 1
            assert counters["transport.shm_frames"] == 2
        finally:
            self._teardown(t_a, t_b, segment)

    def test_links_without_rings_fall_back_to_tcp(self):
        """The reverse direction has no ring: plain TCP still works on
        the same transport pair (the remote-peer deployment shape)."""
        telemetry = Telemetry()
        t_a, t_b, segment = self._pair()
        t_b.attach_telemetry(telemetry)
        try:
            t_b.send(_msg(src="b", dst="a", payload="tcp-path"))
            got = _poll_until(t_a, "a", 1)
            assert got[0].payload == "tcp-path"
            counters = telemetry.registry.snapshot()["counters"]
            assert "transport.shm_frames" not in counters
        finally:
            self._teardown(t_a, t_b, segment)

    def test_duplicate_ring_attachment_rejected(self):
        t_a, t_b, segment = self._pair()
        try:
            with pytest.raises(TransportError):
                t_a.attach_outbound_ring("a", "b", segment.name)
            with pytest.raises(TransportError):
                t_b.attach_inbound_ring("a", "b", segment.name)
        finally:
            self._teardown(t_a, t_b, segment)

    def test_close_detaches_rings_and_stops_pumps(self):
        t_a, t_b, segment = self._pair()
        t_a.close()
        t_b.close()
        try:
            assert t_a._out_rings == {}
            assert not any(thread.is_alive()
                           for thread in t_b._pump_threads.values())
        finally:
            segment.close()
            segment.unlink()
