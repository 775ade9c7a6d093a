"""A shared-memory data plane for same-host process-per-node deployments.

The multiprocess backplane's loopback-TCP data plane pays a syscall, a
length-prefixed frame write and a receiver-thread handoff for every wire
frame.  On one host that is pure overhead: the paper's premise (section
2.2.2.1) is that a distributed backplane lives or dies by how little
synchronisation traffic crosses between nodes, and a loopback socket
makes even the cheap traffic expensive.  This module replaces it with
per-directed-link ring buffers over :mod:`multiprocessing.shared_memory`:

* **Single-producer / single-consumer** — each ring belongs to exactly
  one directed link (``src`` process writes, ``dst`` process reads), so
  the fast path needs no cross-process locks at all: the producer only
  advances ``tail``, the consumer only advances ``head``, and a frame is
  visible to the consumer strictly after its bytes are in place.  (The
  producer *process* may write from several threads — the run loop and
  the call-serving receiver threads — so each ring carries a process-
  local ``threading.Lock`` for them; that lock never crosses the wall.)
* **Length-prefixed frames** — the same pickled :class:`Message` /
  :class:`BatchFrame` blobs the TCP transport ships, unchanged, so byte
  accounting, telemetry spans and fault envelopes are identical across
  transports.
* **TCP fallback for oversized frames** — a frame that can never fit the
  ring spills over the regular TCP path, with an ordering marker left in
  the ring so the consumer replays it in its original position (mixing
  two channels would otherwise reorder a link's FIFO stream).

:class:`SharedMemoryTransport` subclasses :class:`TcpTransport` and
overrides only the one-way frame write: synchronous calls (safe time,
hardware) and remote peers without a ring keep using TCP, which also
remains the control plane for genuinely remote deployments.
"""

from __future__ import annotations

import struct
import threading
import time as _time
from typing import Dict, Optional, Tuple

from ..core.errors import LinkDown, TransportError
from ..transport.codec import decode_any, encode
from ..transport.message import Message, MessageKind
from .pipeline import open_envelope
from .tcp import TcpTransport, _Connection  # noqa: F401  (re-export shape)

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

#: Ring header: two 8-byte monotonic counters at fixed aligned offsets.
_HEAD = struct.Struct("<Q")     # bytes consumed (written by the consumer)
_TAIL = struct.Struct("<Q")     # bytes produced (written by the producer)
_HEADER_SIZE = 16
_LEN = struct.Struct("<I")      # frame body length prefix
_SEQ = struct.Struct("<Q")      # spill sequence number

#: Frame body type tags (first body byte).
_FRAME_DATA = 0
_FRAME_SPILL = 1

#: Default per-link ring capacity.  Frames here are small pickles (tens
#: of bytes to a few KB); 256 KiB absorbs long batches without ever
#: stalling the producer on the benchmark workloads.
DEFAULT_RING_CAPACITY = 256 * 1024

#: Payload tag of the TCP envelope an oversized frame spills through.
_SPILL_TAG = "shm-spill"


class ShmRing:
    """One single-producer/single-consumer frame ring in shared memory.

    Layout: ``head`` (u64, consumer cursor) and ``tail`` (u64, producer
    cursor) followed by the data area.  Cursors are monotonic byte
    counts; physical offsets are ``cursor % capacity``.  The producer
    writes the frame body and only then publishes the new ``tail``, so
    the consumer never observes a torn frame.
    """

    def __init__(self, name: Optional[str] = None, *,
                 capacity: int = DEFAULT_RING_CAPACITY,
                 create: bool = False) -> None:
        if _shared_memory is None:  # pragma: no cover
            raise TransportError("multiprocessing.shared_memory unavailable")
        if create:
            self.shm = _shared_memory.SharedMemory(
                create=True, size=_HEADER_SIZE + capacity)
        else:
            # Attaching registers with the resource tracker too, but the
            # tracker is shared with (and its cache deduplicates against)
            # the creating coordinator, whose unlink() retires the single
            # entry — so no extra bookkeeping is needed here.
            self.shm = _shared_memory.SharedMemory(name=name)
        self.name = self.shm.name
        self.capacity = self.shm.size - _HEADER_SIZE
        self._buf = self.shm.buf
        #: Serialises the *local* producer threads of this process; the
        #: consumer process never touches it.
        self.write_lock = threading.Lock()
        if create:
            _HEAD.pack_into(self._buf, 0, 0)
            _TAIL.pack_into(self._buf, 8, 0)

    # -- cursor helpers -------------------------------------------------
    def _head(self) -> int:
        return _HEAD.unpack_from(self._buf, 0)[0]

    def _tail(self) -> int:
        return _TAIL.unpack_from(self._buf, 8)[0]

    def _copy_in(self, cursor: int, blob) -> None:
        offset = cursor % self.capacity
        first = min(len(blob), self.capacity - offset)
        base = _HEADER_SIZE
        self._buf[base + offset:base + offset + first] = blob[:first]
        if first < len(blob):
            self._buf[base:base + len(blob) - first] = blob[first:]

    def _copy_out(self, cursor: int, length: int) -> bytes:
        offset = cursor % self.capacity
        first = min(length, self.capacity - offset)
        base = _HEADER_SIZE
        chunk = bytes(self._buf[base + offset:base + offset + first])
        if first < length:
            chunk += bytes(self._buf[base:base + length - first])
        return chunk

    # -- producer side --------------------------------------------------
    def fits_ever(self, body_len: int) -> bool:
        """Whether a frame of ``body_len`` body bytes can *ever* ship."""
        return _LEN.size + 1 + body_len <= self.capacity

    def try_write(self, blob: bytes, *, frame_type: int = _FRAME_DATA) -> bool:
        """Append one frame; False when the ring currently lacks room."""
        body_len = 1 + len(blob)
        need = _LEN.size + body_len
        with self.write_lock:
            tail = self._tail()
            if self.capacity - (tail - self._head()) < need:
                return False
            self._copy_in(tail, _LEN.pack(body_len))
            self._copy_in(tail + _LEN.size, bytes((frame_type,)))
            self._copy_in(tail + _LEN.size + 1, blob)
            # Publish last: the frame only becomes visible once complete.
            _TAIL.pack_into(self._buf, 8, tail + need)
            return True

    # -- consumer side --------------------------------------------------
    def try_read(self) -> Optional[Tuple[int, bytes]]:
        """Pop one frame as ``(frame_type, blob)``, or None when empty."""
        head = self._head()
        if self._tail() - head < _LEN.size:
            return None
        (body_len,) = _LEN.unpack(self._copy_out(head, _LEN.size))
        body = self._copy_out(head + _LEN.size, body_len)
        _HEAD.pack_into(self._buf, 0, head + _LEN.size + body_len)
        return body[0], body[1:]

    def pending_bytes(self) -> int:
        return self._tail() - self._head()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self._buf = None
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass


def create_ring_segment(capacity: int = DEFAULT_RING_CAPACITY) -> ShmRing:
    """Allocate a fresh ring segment (the coordinator owns its name and
    is responsible for ``unlink()`` once the run's processes detach)."""
    return ShmRing(capacity=capacity, create=True)


def spill_envelope(src: str, dst: str, seq: int, blob: bytes) -> Message:
    """The TCP envelope an oversized ring frame travels in."""
    return Message(kind=MessageKind.CONTROL, src=src, dst=dst,
                   payload=(_SPILL_TAG, seq, blob))


def open_spill_envelope(message: Message):
    """Return ``(seq, blob)`` for a spill envelope, else ``None``."""
    opened = open_envelope(message, (_SPILL_TAG,))
    return None if opened is None else opened[1:]


class SharedMemoryTransport(TcpTransport):
    """The TCP transport with a shared-memory fast path for one-way
    frames on links that have a ring attached.

    Everything above the frame write — batching, fault envelopes, span
    minting, byte accounting — is the shared pipeline's, and the wire
    counters and ingest path are the TCP carrier's, so a run is
    bit-identical in its telemetry whichever data plane carried the
    bytes (minus the ``transport.shm_*`` counters themselves).
    """

    #: How long a producer waits for a full ring to drain before
    #: declaring the consumer gone.  Mirrors the TCP retry deadline's
    #: role; a healthy consumer drains a full ring in microseconds.
    FULL_RING_DEADLINE = 10.0

    #: How long the pump waits for a spilled frame's TCP copy once its
    #: ordering marker has been consumed.
    SPILL_DEADLINE = 30.0

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._out_rings: Dict[Tuple[str, str], ShmRing] = {}
        self._in_rings: Dict[Tuple[str, str], ShmRing] = {}
        self._ring_lock = threading.Lock()
        self._spill_seq: Dict[Tuple[str, str], int] = {}
        #: Arrived spill blobs keyed ``(src, dst, seq)``, filled by the
        #: TCP receiver threads, drained by the ring pump.
        self._spills: Dict[Tuple[str, str, int], bytes] = {}
        self._spill_cond = threading.Condition()
        self._pump_threads: Dict[str, threading.Thread] = {}
        self._pump_running = True
        #: Rings detached by a migration re-splice.  They stay mapped
        #: (closed only at transport close) because a pump thread may
        #: hold a just-detached ring for one more sweep — reading from a
        #: retired ring is harmless (its traffic is from a fenced epoch),
        #: reading from an unmapped one would crash.
        self._retired_rings: list = []

    # ------------------------------------------------------------------
    # ring wiring
    # ------------------------------------------------------------------
    def attach_outbound_ring(self, src: str, dst: str, name: str) -> None:
        """Attach (as producer) the ring carrying ``src`` -> ``dst``."""
        with self._ring_lock:
            if (src, dst) in self._out_rings:
                raise TransportError(f"outbound ring {src}->{dst} exists")
            self._out_rings[(src, dst)] = ShmRing(name)
            self._spill_seq[(src, dst)] = 0

    def attach_inbound_ring(self, src: str, dst: str, name: str) -> None:
        """Attach (as consumer) the ring carrying ``src`` -> ``dst`` and
        ensure ``dst``'s pump thread is running."""
        with self._ring_lock:
            if (src, dst) in self._in_rings:
                raise TransportError(f"inbound ring {src}->{dst} exists")
            self._in_rings[(src, dst)] = ShmRing(name)
            if dst not in self._pump_threads:
                thread = threading.Thread(target=self._pump, args=(dst,),
                                          name=f"pia-shm-pump-{dst}",
                                          daemon=True)
                self._pump_threads[dst] = thread
                thread.start()

    def detach_node_rings(self, name: str) -> None:
        """Detach every ring on a link touching node ``name`` plus its
        spill bookkeeping (migration re-splice: the coordinator hands out
        fresh segments for the node's new placement).  Pump threads
        re-list their rings each sweep, so they simply stop seeing the
        detached ones."""
        with self._ring_lock:
            for cache in (self._out_rings, self._in_rings):
                for key in [k for k in cache if name in k]:
                    self._retired_rings.append(cache.pop(key))
            for key in [k for k in self._spill_seq if name in k]:
                del self._spill_seq[key]
        with self._spill_cond:
            for key in [k for k in self._spills if name in k[:2]]:
                del self._spills[key]
            self._spill_cond.notify_all()

    def forget_peer(self, name: str) -> None:
        self.detach_node_rings(name)
        super().forget_peer(name)

    # ------------------------------------------------------------------
    # producer fast path
    # ------------------------------------------------------------------
    def _send_reliable(self, src: str, dst: str, blob: bytes,
                       time: float) -> None:
        ring = self._out_rings.get((src, dst))
        if ring is None:
            super()._send_reliable(src, dst, blob, time)
            return
        telemetry = self.telemetry
        if not ring.fits_ever(len(blob)):
            # Oversized: spill over TCP, leaving an ordering marker in
            # the ring so the consumer replays the frame in sequence.
            seq = self._spill_seq[(src, dst)]
            self._spill_seq[(src, dst)] = seq + 1
            self._ring_write(ring, src, dst, _SEQ.pack(seq),
                             frame_type=_FRAME_SPILL)
            super()._send_reliable(
                src, dst, encode(spill_envelope(src, dst, seq, blob)), time)
            if telemetry.enabled:
                telemetry.count("transport.shm_spills")
            return
        self._ring_write(ring, src, dst, blob)
        if telemetry.enabled:
            telemetry.count("transport.shm_frames")
            telemetry.count("transport.shm_bytes", len(blob))

    def _ring_write(self, ring: ShmRing, src: str, dst: str, blob: bytes,
                    *, frame_type: int = _FRAME_DATA) -> None:
        """Write one frame, waiting out a transiently full ring."""
        if ring.try_write(blob, frame_type=frame_type):
            return
        deadline = _time.monotonic() + self.FULL_RING_DEADLINE
        pause = 0.0001
        while not ring.try_write(blob, frame_type=frame_type):
            if _time.monotonic() >= deadline:
                raise LinkDown(
                    f"link {src}->{dst}: shared-memory ring stayed full "
                    f"for {self.FULL_RING_DEADLINE:g}s — consumer gone?",
                    src=src, dst=dst)
            _time.sleep(pause)
            pause = min(pause * 2, 0.002)
        if self.telemetry.enabled:
            self.telemetry.count("transport.shm_ring_full_waits")

    # ------------------------------------------------------------------
    # consumer pump
    # ------------------------------------------------------------------
    def _accept_spill(self, message: Message) -> bool:
        opened = open_spill_envelope(message)
        if opened is None:
            return False
        seq, blob = opened
        with self._spill_cond:
            self._spills[(message.src, message.dst, seq)] = blob
            self._spill_cond.notify_all()
        return True

    def _await_spill(self, src: str, dst: str, seq: int) -> Optional[bytes]:
        deadline = _time.monotonic() + self.SPILL_DEADLINE
        with self._spill_cond:
            while True:
                blob = self._spills.pop((src, dst, seq), None)
                if blob is not None:
                    return blob
                remaining = deadline - _time.monotonic()
                if remaining <= 0 or not self._pump_running:
                    return None
                self._spill_cond.wait(min(remaining, 0.1))

    def _inbound_rings_for(self, node: str):
        with self._ring_lock:
            return [(key, ring) for key, ring in sorted(self._in_rings.items())
                    if key[1] == node]

    def _pump(self, node: str) -> None:
        """Drain ``node``'s inbound rings into its endpoint inbox.

        One thread per consumer node polls its rings with a short
        adaptive backoff — the shared-memory analogue of the TCP
        receiver threads, feeding the exact same ingest path (fault
        envelopes, wire counters, executor wakeup included).
        """
        idle = 0
        while self._pump_running:
            endpoint = self._endpoints.get(node)
            if endpoint is None:
                # Rings may attach before the node registers (wiring
                # order is the deployment's business); wait for it.
                _time.sleep(0.001)
                continue
            if not endpoint.running:
                return
            moved = False
            for (src, __), ring in self._inbound_rings_for(node):
                while True:
                    frame = ring.try_read()
                    if frame is None:
                        break
                    frame_type, body = frame
                    if frame_type == _FRAME_SPILL:
                        (seq,) = _SEQ.unpack(body)
                        body = self._await_spill(src, node, seq)
                        if body is None:
                            if self.telemetry.enabled:
                                self.telemetry.count(
                                    "transport.shm_spill_timeouts")
                            continue
                    try:
                        endpoint.ingest_frame(decode_any(body))
                    except TransportError:
                        if self.telemetry.enabled:
                            self.telemetry.count(
                                "transport.shm_decode_errors")
                        continue
                    moved = True
            if moved:
                idle = 0
                continue
            idle += 1
            # Spin briefly for bursty traffic, then back off; the cap
            # bounds idle CPU without adding meaningful latency.
            _time.sleep(0.0002 if idle < 20 else 0.002)

    # ------------------------------------------------------------------
    def _in_flight(self, name: Optional[str]) -> int:
        """Inbound rings still holding bytes — a "not yet quiet" signal
        for ``pending()``, never an exact count; the wire counters are
        the authoritative balance check."""
        with self._ring_lock:
            unread = sum(1 for (__, dst), ring in self._in_rings.items()
                         if (name is None or dst == name)
                         and ring.pending_bytes())
        return unread + super()._in_flight(name)

    def close(self) -> None:
        self._pump_running = False
        with self._spill_cond:
            self._spill_cond.notify_all()
        for thread in self._pump_threads.values():
            thread.join(timeout=1.0)
        self._pump_threads.clear()
        with self._ring_lock:
            for ring in list(self._out_rings.values()) \
                    + list(self._in_rings.values()) + self._retired_rings:
                ring.close()
            self._out_rings.clear()
            self._in_rings.clear()
            self._retired_rings.clear()
        self._spills.clear()
        super().close()
