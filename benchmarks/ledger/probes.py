"""Micro-probes of single layers, run once per traced run.

These time a layer in isolation, on this workload's own frames where a
frame is involved.  They are per-layer guard rails — how fast the part
*can* go — never results: a gain is only claimed on an end-to-end
metric.
"""

from __future__ import annotations

import threading
import time
from typing import List

from repro.core.events import Event, EventKind
from repro.core.subsystem import Subsystem
from repro.core.timestamp import Timestamp
from repro.transport.codec import decode, encode
from repro.transport.inmemory import InMemoryTransport
from repro.transport.message import Message
from repro.transport.shm import create_ring_segment
from repro.transport.tcp import TcpTransport


def dispatch_events_per_s(events: int = 100_000) -> float:
    """Raw scheduler throughput: one self-rescheduling CONTROL event (the
    probe ``benchmarks/perf_smoke.py`` gates on)."""
    scheduler = Subsystem("ubench").scheduler
    remaining = events

    def tick(event):
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            scheduler.schedule(Event(event.time + 1.0,
                                     EventKind.CONTROL, tick))

    scheduler.schedule(Event(Timestamp(0.0), EventKind.CONTROL, tick))
    start = time.perf_counter()
    dispatched = scheduler.run()
    return dispatched / (time.perf_counter() - start)


def sample_messages(build, limit: int = 256) -> List[Message]:
    """The first ``limit`` messages an in-memory run of ``build()``
    hands to its transport: the workload's own SIGNAL and safe-time
    frames, trace context and all."""
    seen: List[Message] = []
    originals = {attr: vars(InMemoryTransport)[attr]
                 for attr in ("send", "call")}

    def tap(original):
        def tapped(self, message):
            if len(seen) < limit:
                seen.append(message)
            return original(self, message)
        return tapped

    for attr, original in originals.items():
        setattr(InMemoryTransport, attr, tap(original))
    try:
        build().run()
    finally:
        for attr, original in originals.items():
            setattr(InMemoryTransport, attr, original)
    return seen


def codec_us(messages: List[Message], passes: int = 20) -> tuple:
    """Mean ``(encode_us, decode_us)`` per message over ``messages``."""
    if not messages:
        return 0.0, 0.0
    start = time.perf_counter()
    for __ in range(passes):
        blobs = [encode(message) for message in messages]
    encoded = time.perf_counter() - start
    start = time.perf_counter()
    for __ in range(passes):
        for blob in blobs:
            decode(blob)
    decoded = time.perf_counter() - start
    calls = passes * len(messages)
    return encoded / calls * 1e6, decoded / calls * 1e6


def tcp_loopback_rtt_us(message: Message, hops: int = 300) -> float:
    """Mean send -> poll latency of ``message`` between two nodes of one
    in-process :class:`TcpTransport` (real loopback sockets).  The
    receiver parks on the transport's wake-up hook, as an event-driven
    worker does — spinning on ``poll`` would starve the receiver thread
    of the interpreter lock and time the switch interval instead."""
    arrived = threading.Event()
    with TcpTransport() as transport:
        transport.register("a")
        transport.register("b")
        transport.wakeup_hook = arrived.set
        total = 0.0
        for __ in range(hops):
            hop = Message(kind=message.kind, src="a", dst="b",
                          channel=message.channel, time=message.time,
                          payload=message.payload)
            arrived.clear()
            start = time.perf_counter()
            transport.send(hop)
            while not transport.poll("b"):
                arrived.wait(1.0)
            total += time.perf_counter() - start
    return total / hops * 1e6


def shm_ring_rtt_us(message: Message, hops: int = 5_000) -> float:
    """Mean ``try_write`` -> ``try_read`` latency of ``message``'s frame
    through one :class:`ShmRing`."""
    blob = encode(message)
    ring = create_ring_segment()
    try:
        start = time.perf_counter()
        for __ in range(hops):
            ring.try_write(blob)
            ring.try_read()
        elapsed = time.perf_counter() - start
    finally:
        ring.close()
        ring.unlink()
    return elapsed / hops * 1e6
