"""A real socket transport over localhost TCP.

The paper's Pia nodes are separate JVM processes joined by RMI over the
Internet; this transport mirrors that deployment shape inside one machine:
each registered node owns a listening socket and a receiver thread, frames
are length-prefixed binary codec frames (:mod:`repro.transport.codec`),
and synchronous calls block on a cached per-link connection.  An optional
``delay_scale`` injects a real ``sleep`` proportional to the link's
modelled latency so wall-clock behaviour can be observed, scaled down to
keep experiments tractable.

What is sent, and in which order, is the shared pipeline's business
(:class:`~repro.transport.pipeline.Transport`); this carrier adds the
sockets, retry/evict, receiver threads and — frames arrive asynchronously
here — wire counters, the epoch fence and fault-envelope filing at ingest.

Failure handling: outbound connections are cached per directed link and
guarded by a per-connection lock, so concurrent senders to different
destinations never serialise on one global lock.  A send or call that
hits a dead socket evicts the cached connection and retries against the
transport's :class:`~repro.faults.RetryPolicy` (exponential backoff,
plan-seeded jitter when a fault injector is attached); once the attempt
budget or deadline is spent the caller sees a typed
:class:`~repro.core.errors.LinkDown` rather than a raw socket error.

The deterministic experiments use :class:`InMemoryTransport`; this class
exists to exercise the genuinely concurrent, multi-threaded deployment.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time as _time
from collections import deque
from typing import Callable, Dict, Optional, Tuple

from ..core.errors import LinkDown, RemoteCallError, TransportError
from ..faults.retry import RetryPolicy
from ..observability import TraceKind
from .codec import decode, decode_any, encode, encode_batch
from .latency import SAME_HOST, LatencyModel
from .message import BatchFrame, Message, MessageKind
from .pipeline import (FAULT_FATES, CallHandler, Transport, file_fate,
                       open_envelope)

_LENGTH = struct.Struct("!I")

#: Reply envelope for a synchronous call whose handler raised: the
#: payload carries ``(_CALL_ERROR, exception type name, str(exc))`` and
#: ``call()`` re-raises it as a typed :class:`RemoteCallError` instead of
#: letting the connection die and the caller burn its retry budget.
_CALL_ERROR = "call-error"


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        piece = sock.recv(n)
        if not piece:
            raise ConnectionError("peer closed")
        chunks.append(piece)
        n -= len(piece)
    return b"".join(chunks)


def _send_frame(sock: socket.socket, blob: bytes) -> None:
    sock.sendall(_LENGTH.pack(len(blob)) + blob)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    return _recv_exact(sock, length)


class _NodeEndpoint:
    """Server socket + receiver threads for one node."""

    def __init__(self, transport: "TcpTransport", name: str) -> None:
        self.transport = transport
        self.name = name
        self.inbox: deque = deque()
        self.lock = threading.Lock()
        self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(16)
        self.port = self.server.getsockname()[1]
        self.running = True
        self.accept_thread = threading.Thread(
            target=self._accept_loop, name=f"pia-accept-{name}", daemon=True)
        self.accept_thread.start()

    def _accept_loop(self) -> None:
        while self.running:
            try:
                conn, __ = self.server.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,),
                             name=f"pia-conn-{self.name}", daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            while self.running:
                message = decode_any(_recv_frame(conn))
                if not isinstance(message, BatchFrame) and message.kind in (
                        MessageKind.SAFE_TIME_REQUEST, MessageKind.HW_CALL):
                    # A handler error must reach the *caller*, not kill
                    # this connection thread: reply with a typed error
                    # envelope that call() re-raises as RemoteCallError.
                    try:
                        reply = self.transport._dispatch_call(self.name,
                                                              message)
                    except Exception as exc:
                        reply = message.reply(
                            MessageKind.CONTROL,
                            payload=(_CALL_ERROR, type(exc).__name__,
                                     str(exc)))
                    _send_frame(conn, encode(reply))
                else:
                    self.ingest_frame(message)
        except (ConnectionError, OSError):
            pass
        finally:
            conn.close()

    def ingest_frame(self, message) -> None:
        """File one arrived one-way wire frame — a single
        :class:`Message` or a whole :class:`BatchFrame` — shared by the
        TCP receiver threads and the shared-memory ring pump."""
        if isinstance(message, BatchFrame):
            transport = self.transport
            if message.epoch != transport.epoch:
                # A whole frame from a pre-failover world: every member
                # shares the sender's epoch, so the frame drops whole.
                transport._count_stale(len(message))
                return
            for member in message.messages:
                # Members were stamped at enqueue time; the frame's epoch
                # is authoritative (enqueue and flush straddle no bump —
                # rollback clears the batcher first).
                member.epoch = message.epoch
                self._ingest(member)
            if message.grants:
                for grant in message.grants:
                    grant.epoch = message.epoch
                with self.lock:
                    self.inbox.extend(message.grants)
                    transport._arrived.add(self.name)
                    with self.transport.wire_lock:
                        self.transport.wire_in += len(message.grants)
                self.transport._wake()
        else:
            self._ingest(message)

    def _ingest(self, message: Message) -> None:
        """File one arrived one-way message: unwrap fault envelopes into
        the local injector's queues, everything else into the inbox."""
        transport = self.transport
        if transport._accept_spill(message):
            # An oversized-frame spill riding the TCP fallback path; the
            # ring pump ingests (and wire-counts) the inner frame when
            # its ordering marker comes up.
            return
        injector = transport.fault_injector
        opened = open_envelope(message, FAULT_FATES)
        with self.lock:
            # Epoch check, filing and wire-count happen under one lock so
            # a concurrent ``set_epoch`` (which takes every endpoint lock)
            # can never zero the counters between a stale frame passing
            # the check and being counted.
            if message.epoch != transport.epoch:
                transport._count_stale(1)
                return
            if opened is not None:
                tag, ticks, inner = opened
                # No fault plane on this side: deliver the inner message
                # plainly rather than losing it.
                if injector is None or file_fate(injector, FAULT_FATES[tag],
                                                 ticks, inner):
                    self.inbox.append(inner)
                    transport._arrived.add(self.name)
                # Counted only after the message is filed somewhere
                # visible (inbox or injector queue): the quiescence
                # balance check must never see wire_in caught up while a
                # delivery is in limbo.
                with transport.wire_lock:
                    transport.wire_in += 1
            else:
                self.inbox.append(message)
                transport._arrived.add(self.name)
                with transport.wire_lock:
                    transport.wire_in += 1
                if injector is not None:
                    # A swap-parked message is released right behind the
                    # link's next arrival — the cross-process mirror of
                    # the sender-side take_swaps() call.
                    late = injector.take_swaps(message.src, self.name)
                    if late:
                        self.inbox.extend(late)
        transport._wake()

    def close(self) -> None:
        self.running = False
        try:
            self.server.close()
        except OSError:
            pass


class _Connection:
    """A cached outbound socket plus its own send lock."""

    __slots__ = ("sock", "lock")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()


class TcpTransport(Transport):
    """Message passing between in-process nodes over real TCP sockets.

    Telemetry counter updates from receiver threads are advisory — a lost
    tick under contention skews a statistic, never the simulation."""

    def __init__(self, *, default_model: LatencyModel = SAME_HOST,
                 delay_scale: float = 0.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 batching: bool = False) -> None:
        super().__init__(default_model=default_model, batching=batching)
        self.accounting.pace = delay_scale
        #: Governs reconnect attempts for dead sockets *and* retries of
        #: injected drops when a fault plane is attached.
        if retry_policy is not None:
            self.retry_policy = retry_policy
        self._endpoints: Dict[str, _NodeEndpoint] = {}
        self._conns: Dict[Tuple[str, str], _Connection] = {}
        #: Cached per-directed-link connections for synchronous calls,
        #: separate from the one-way data connections: a call holds its
        #: connection's lock across the send *and* the reply read, which
        #: must never stall unrelated one-way traffic.  Reuse matters —
        #: a fresh ``create_connection`` per safe-time call churns
        #: ephemeral ports and dominates call latency under load.
        self._call_conns: Dict[Tuple[str, str], _Connection] = {}
        #: Optional executor hook invoked (from receiver threads) after a
        #: message lands in an inbox: lets an event-driven worker park on
        #: a condition instead of spinning on poll().
        self.wakeup_hook: Optional[Callable[[], None]] = None
        #: Nodes living in *other* processes: name -> (host, port).  Set
        #: by the multiprocess deployment after every worker has bound its
        #: listener; destinations are resolved here when not local.
        self._peers: Dict[str, Tuple[str, int]] = {}
        #: One-way wire traffic counters (logical messages + grants, not
        #: frames): the distributed quiescence check compares the sums of
        #: these across processes to know nothing is in flight.
        self.wire_out = 0
        self.wire_in = 0
        #: ``+=`` on an int is not atomic; in the threaded deployment
        #: many node threads share this transport, so unguarded counter
        #: bumps can lose updates and the quiescence balance check would
        #: then spin until its timeout.
        self.wire_lock = threading.Lock()
        #: Frames dropped by the epoch fence at ingest (see
        #: :meth:`set_epoch`): a rolled-back run never sees ghosts from
        #: the world it left.
        self.stale_epoch_drops = 0
        #: The process that owns the live sockets.  A transport that
        #: crosses a ``fork``/``spawn`` must not reuse inherited FDs —
        #: the first touch from another PID drops them (see
        #: :meth:`_guard_process`).
        self._pid = os.getpid()
        #: Guards the connection *cache* only; frame writes serialise on
        #: each connection's own lock so independent links never contend.
        self._conn_lock = threading.Lock()

    def _wake(self) -> None:
        """Nudge a parked executor after an arrival (see wakeup_hook)."""
        hook = self.wakeup_hook
        if hook is not None:
            hook()

    def _accept_spill(self, message: Message) -> bool:
        """Intercept an shm spill envelope (shared-memory subclass only)."""
        return False

    def _count_stale(self, n: int) -> None:
        self.stale_epoch_drops += n
        if self.telemetry.enabled:
            self.telemetry.count("transport.stale_epoch_drops", n)

    def set_epoch(self, epoch: int) -> None:
        """Enter migration epoch ``epoch`` and zero the wire counters.

        Called at a failover/migration barrier while local senders are
        parked.  Every endpoint lock is held across the switch so no
        receiver thread can file a stale frame between the epoch bump and
        the counter reset — afterwards the balance starts clean (0 == 0)
        and any late frame from the old world drops at ingest.
        """
        endpoints = sorted(self._endpoints.values(), key=lambda e: e.name)
        for endpoint in endpoints:
            endpoint.lock.acquire()
        try:
            self.epoch = epoch
            with self.wire_lock:
                self.wire_out = 0
                self.wire_in = 0
        finally:
            for endpoint in reversed(endpoints):
                endpoint.lock.release()

    # ------------------------------------------------------------------
    # child-process safety
    # ------------------------------------------------------------------
    def _guard_process(self) -> None:
        """Detect crossing a ``fork``/``spawn`` and drop inherited sockets.

        A forked child inherits the parent's cached outbound connections
        and listening sockets as shared FDs; writing on them would corrupt
        the parent's frame streams, and accepting on them would steal the
        parent's connections.  On the first touch from a new PID every
        cached connection is closed (connections re-establish lazily on
        the next send) and every endpoint is rebound to a fresh listener
        on a new port, preserving its inbox.
        """
        if os.getpid() == self._pid:
            return
        self._pid = os.getpid()
        # Only the calling thread survives a fork, so no other thread can
        # be mid-send; closing our dups never disturbs the parent's FDs.
        self._close_links()
        stale, self._endpoints = self._endpoints, {}
        for name, old in stale.items():
            old.running = False
            try:
                old.server.close()
            except OSError:
                pass
            fresh = _NodeEndpoint(self, name)
            fresh.inbox.extend(old.inbox)
            self._endpoints[name] = fresh
        if self.telemetry.enabled:
            self.telemetry.count("transport.fork_resets")

    # ------------------------------------------------------------------
    def set_peer(self, name: str, port: int,
                 host: str = "127.0.0.1") -> None:
        """Declare a node living in another process, reachable at
        ``host:port`` (multiprocess deployment)."""
        if name in self._endpoints:
            raise TransportError(f"node {name!r} is registered locally")
        self._peers[name] = (host, port)

    def forget_peer(self, name: str) -> None:
        """Drop a remote node's address plus every cached link and queued
        batch touching it (the migration re-splice: the node is about to
        be re-declared at its new home via :meth:`set_peer`)."""
        self._peers.pop(name, None)
        self.batcher.clear(name)
        self._close_links(name)

    def local_port(self, name: str) -> int:
        """The TCP port node ``name``'s local endpoint listens on."""
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise TransportError(f"unknown node {name!r}")
        return endpoint.port

    def _address_of(self, dst: str) -> Tuple[str, int]:
        endpoint = self._endpoints.get(dst)
        if endpoint is not None:
            return ("127.0.0.1", endpoint.port)
        peer = self._peers.get(dst)
        if peer is not None:
            return peer
        raise TransportError(f"unknown destination node {dst!r}")

    def _route(self, dst: str) -> Optional[bool]:
        if dst in self._peers:
            return True
        return False if dst in self._endpoints else None

    # ------------------------------------------------------------------
    def register(self, name: str,
                 call_handler: Optional[CallHandler] = None) -> int:
        """Create the node's endpoint; returns its TCP port."""
        self._guard_process()
        if name in self._endpoints:
            raise TransportError(f"node {name!r} already registered")
        endpoint = _NodeEndpoint(self, name)
        self._endpoints[name] = endpoint
        if call_handler is not None:
            self._call_handlers[name] = call_handler
        return endpoint.port

    def nodes(self) -> list:
        return sorted(self._endpoints)

    def close(self) -> None:
        """Tear down endpoints and connections and reset link state.

        A closed transport must be reusable: peers, queued batches and
        the wire counters are cleared too, so a later ``register`` +
        ``send`` cycle neither resolves stale remote addresses nor starts
        with ``wire_balanced()`` already false.
        """
        for endpoint in self._endpoints.values():
            endpoint.close()
        self._close_links()
        self._endpoints.clear()
        self._peers.clear()
        self.batcher.clear()
        with self.wire_lock:
            self.wire_out = 0
            self.wire_in = 0
        self.epoch = 0
        self.stale_epoch_drops = 0

    # ------------------------------------------------------------------
    def _close_links(self, name: Optional[str] = None) -> None:
        """Close and forget the cached connections of every link touching
        node ``name`` (default: all of them)."""
        with self._conn_lock:
            for cache in (self._conns, self._call_conns):
                for key in [k for k in cache if name is None or name in k]:
                    try:
                        cache.pop(key).sock.close()
                    except OSError:
                        pass

    def _connection(self, cache: dict, src: str, dst: str) -> _Connection:
        """The cached connection of one directed link in ``cache`` (the
        one-way or the request/response table), dialled on first use."""
        with self._conn_lock:
            entry = cache.get((src, dst))
            if entry is None:
                sock = socket.create_connection(self._address_of(dst),
                                                timeout=10.0)
                entry = cache[(src, dst)] = _Connection(sock)
                if cache is self._call_conns and self.telemetry.enabled:
                    self.telemetry.count("transport.call_connects")
            return entry

    def _evict(self, cache: dict, src: str, dst: str,
               entry: _Connection) -> None:
        """Drop a dead cached connection so the next attempt reconnects."""
        with self._conn_lock:
            if cache.get((src, dst)) is entry:
                del cache[(src, dst)]
        try:
            entry.sock.close()
        except OSError:
            pass
        if self.telemetry.enabled:
            self.telemetry.count("transport.evictions")

    def _dispatch_call(self, name: str, message: Message) -> Message:
        handler = self._call_handlers.get(name)
        if handler is None:
            raise TransportError(f"node {name!r} accepts no calls")
        return handler(message)

    def _retry_sleep(self, src: str, dst: str, retry_index: int,
                     time: float, seq: object) -> None:
        injector = self.fault_injector
        u = 0.5
        if injector is not None:
            u = injector.backoff_uniform(src, dst, retry_index)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("transport.retries")
            telemetry.trace(TraceKind.RETRY, time=time,
                            subject=f"{src}->{dst}",
                            attempt=retry_index + 1, seq=seq)
        _time.sleep(self.retry_policy.backoff(retry_index, u))

    def _reliably(self, cache: dict, src: str, dst: str, time: float,
                  seq: Optional[str],
                  exchange: Callable[[socket.socket], object]):
        """Run ``exchange(sock)`` under the link's connection lock
        (``seq`` labels the retry traces: ``"call"`` or None for a send).

        Connection failures (refused, reset, peer gone) evict the cached
        connection and are retried per the retry policy; exhaustion
        raises :class:`LinkDown` so callers never see a raw socket error
        for a dead peer.
        """
        policy = self.retry_policy
        attempt = 0
        start = _time.monotonic()
        while True:
            entry = None
            try:
                entry = self._connection(cache, src, dst)
                with entry.lock:
                    return exchange(entry.sock)
            except (ConnectionError, OSError) as exc:
                if entry is not None:
                    self._evict(cache, src, dst, entry)
                attempt += 1
                exhausted = (attempt >= policy.max_attempts
                             or _time.monotonic() - start >= policy.deadline)
                if exhausted:
                    raise LinkDown(
                        f"link {src}->{dst}: {seq or 'send'} failed after "
                        f"{attempt} attempt(s): {exc}", src=src, dst=dst,
                        attempts=attempt) from exc
                self._retry_sleep(src, dst, attempt - 1, time, seq)

    def _send_reliable(self, src: str, dst: str, blob: bytes,
                       time: float) -> None:
        """Write one frame, reconnecting through dead cached sockets."""
        self._reliably(self._conns, src, dst, time, None,
                       lambda sock: _send_frame(sock, blob))

    # ------------------------------------------------------------------
    # carrier hooks
    # ------------------------------------------------------------------
    def _pack(self, message: Message) -> Tuple[bytes, int]:
        blob = encode(message)
        return blob, len(blob)

    def _pack_frame(self, frame: BatchFrame) -> Tuple[bytes, int]:
        blob = encode_batch(frame)
        return blob, len(blob)

    def _open(self, parcel: bytes) -> Message:
        return decode(parcel)

    def _ship(self, src: str, dst: str, parcel: bytes, time: float,
              count: int) -> None:
        self._guard_process()
        self._send_reliable(src, dst, parcel, time)
        with self.wire_lock:
            self.wire_out += count

    def _inbox(self, name: str):
        self._guard_process()
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise TransportError(f"unknown node {name!r}")
        return endpoint.inbox, endpoint.lock

    def _round_trip(self, message: Message,
                    parcel: bytes) -> Tuple[Message, int]:
        """Blocking request/response over the link's cached call
        connection.  A reply reporting that the *handler* raised is
        re-raised as :class:`RemoteCallError` — the link is fine, so no
        retries are burned on it."""
        self._guard_process()
        src, dst = message.src, message.dst

        def exchange(sock: socket.socket) -> bytes:
            _send_frame(sock, parcel)
            return _recv_frame(sock)

        blob = self._reliably(self._call_conns, src, dst, message.time,
                              "call", exchange)
        reply = decode(blob)
        error = open_envelope(reply, (_CALL_ERROR,))
        if error is not None:
            __, remote_type, text = error
            raise RemoteCallError(
                f"call {src}->{dst} "
                f"({message.kind.value}) failed in the remote handler: "
                f"{remote_type}: {text}", src=src, dst=dst,
                remote_type=remote_type)
        return reply, len(blob)

    def _in_flight(self, name: Optional[str]) -> int:
        """Deliveries written to a socket that no receiver thread has
        filed yet — knowable only while every peer lives in this process
        (the threaded deployment), where the wire counters balance
        locally.  Like the ring's, a "not yet quiet" signal for the whole
        transport rather than a count for ``name``.  (A receiver can file
        a frame before its sender has counted it: never negative.)"""
        if self._peers:
            return 0
        with self.wire_lock:
            return max(self.wire_out - self.wire_in, 0)

    def wire_balanced(self) -> bool:
        """True when every counted send has been ingested at some endpoint.

        ``pending()`` cannot see a frame that has left the sender's socket
        but has not yet been filed by the receiver thread — on a loaded
        host that window stretches to milliseconds, long enough to fool an
        idle sweep.  The counter balance closes it: an in-flight frame
        keeps ``wire_out`` ahead of ``wire_in``.  Only meaningful when all
        the transport's peers are in this process (the threaded executor);
        the multiprocess coordinator compares per-worker sums instead.
        """
        with self.wire_lock:
            return self.wire_out == self.wire_in

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
