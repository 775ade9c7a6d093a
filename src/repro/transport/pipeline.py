"""The one send pipeline all three carriers share.

Pia's nodes see a single communication substrate (Java RMI: FIFO links,
a synchronous call, serialisation — paper section 3).  This reproduction
has three carriers — an in-process deque, loopback TCP, shared-memory
rings — but one protocol above them.  :class:`Transport` owns every
stage between a node handing over a :class:`Message` and a carrier
moving it; ``send`` runs them in this order and the other entry points
reuse them:

1. stamp the message id and the migration epoch;
2. mint the trace span — before the fault roll, so every copy of the
   message (duplicate, delayed, retried) shares the original send's span;
3. roll the fault plane's fate (``lost`` ends here, silently);
4. check the destination, once, before anything is charged or traced;
5. batch (queue for the next flush) or pack (the carrier serialises);
6. charge the link's accounting (:meth:`NetworkAccounting.charge`, which
   also paces a real-time carrier);
7. file the ``MSG_SEND`` record (as its facts: nothing is built until read);
8. hand the parcel to the carrier;
9. release what the fate owes: the duplicate copy, a swap-parked message.

The pipeline also knows who has work: ``ready(name)`` is true while
anything undelivered is bound for a node — in its inbox, in a batch queue
(its poll is the flush point), parked by the fault plane (its polls are
the release clock) or still in flight — and a sweep over nodes polls only
those.

A carrier subclass moves bytes and nothing else.  It keeps its own node
table (``register``/``nodes``) and supplies:

``_route(dst)``         None unknown / False served here / True remote
``_pack(message)``      ``(parcel, wire size)`` of one message
``_pack_frame(frame)``  ``(parcel, wire size)`` of one batch frame
``_open(parcel)``       the private ``Message`` copy a parcel delivers
``_ship(src, dst, parcel, time, count)``  move one parcel carrying
                        ``count`` logical deliveries
``_inbox(name)``        ``(deque, lock or None)`` of a local node, or raise;
                        filing into it adds the node to ``_arrived``
``_round_trip(message, parcel)``  one request/reply exchange, returning
                        ``(reply, reply wire size)``
``_in_flight(name)``    optional: deliveries no inbox shows yet

The codec sits on the carrier side of ``_pack``: how a message crosses —
and therefore what it weighs — is the medium's call.
"""

from __future__ import annotations

import itertools
import time as _time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

from ..core.errors import TransportError
from ..core.fastcopy import is_immutable
from ..faults.retry import RetryPolicy
from ..observability import NULL_TELEMETRY, BoundCounter, TraceKind
from .accounting import NetworkAccounting
from .batch import SendBatcher
from .latency import SAME_HOST, LatencyModel
from .message import BatchFrame, Message, MessageKind

#: Handles a synchronous call, returning the reply message.
CallHandler = Callable[[Message], Message]

_MSG_SEND = TraceKind.MSG_SEND
_MSG_RECV = TraceKind.MSG_RECV
_GRANT = MessageKind.SAFE_TIME_GRANT
_wall = _time.time


def open_envelope(message: Message, tags):
    """Return the ``(tag, a, b)`` payload of a CONTROL envelope tagged
    with one of ``tags``, else None."""
    if message.kind is not MessageKind.CONTROL:
        return None
    payload = message.payload
    if (isinstance(payload, tuple) and len(payload) == 3
            and payload[0] in tags):
        return payload
    return None


#: Cross-process fault envelopes.  The injector's *decision* is rolled in
#: the sender's process, but the queues it requires (parked deliveries,
#: swap slots, duplicate suppression) must live where the releasing poll
#: happens.  For a destination in another process the pipeline wraps the
#: message in a CONTROL envelope ``(tag, ticks, message)`` and the
#: receiving carrier files it with :func:`file_fate` on arrival.
_FAULT_TAGS = {"delay": "fault-hold", "reorder": "fault-swap",
               "duplicate": "fault-dup"}
FAULT_FATES = {tag: fate for fate, tag in _FAULT_TAGS.items()}


def _fault_envelope(fate: str, message: Message, ticks: int = 0) -> Message:
    return Message(kind=MessageKind.CONTROL, src=message.src,
                   dst=message.dst, channel=message.channel,
                   time=message.time,
                   payload=(_FAULT_TAGS[fate], ticks, message),
                   epoch=message.epoch)


def file_fate(injector, fate: str, ticks: int, inner: Message) -> bool:
    """File ``inner``'s fate with its destination's ``injector``; True
    when ``inner`` is also to be delivered now (the redundant copy of a
    duplicated send, marked for exactly-once suppression at poll)."""
    if fate == "delay":
        injector.hold(inner.dst, inner, ticks)
    elif fate == "reorder":
        injector.hold_swap(inner.src, inner.dst, inner)
    else:
        injector.expect_duplicate(inner.dst, inner.msg_id, src=inner.src)
        return True
    return False


class Transport:
    """FIFO message passing between registered nodes: the shared state
    and the only ``send``/``poll``/``call``/flush bodies (see module
    docstring for the carrier hooks a subclass supplies)."""

    #: Migration epoch: outgoing traffic is stamped with it, and a
    #: carrier that can receive late frames fences older ones at ingest.
    epoch = 0

    def __init__(self, *, default_model: LatencyModel = SAME_HOST,
                 batching: bool = False) -> None:
        self.accounting = NetworkAccounting(default_model)
        #: Coalesce per-destination sends into batch frames (opt-in).
        self.batching = batching
        self.batcher = SendBatcher()
        #: ``(src, dst) -> [Message]`` hook filled by an executor: extra
        #: safe-time grants to piggyback on an outgoing batch frame.
        self.piggyback_provider = None
        #: Per-transport-instance message id stream (stamped at the send
        #: boundary).  Instance-local so two transports in one process —
        #: or a forked child's inherited copy — never interleave one
        #: global stream; ids only need to be unique per ``(src, id)``
        #: within the duplicate-suppression window, which this gives.
        self._msg_ids = itertools.count(1)
        self._call_handlers: Dict[str, CallHandler] = {}
        #: Retry budget of injected drops; a carrier with real links also
        #: spends it on reconnects.  Adopted from an attached fault plane.
        self.retry_policy = RetryPolicy()
        #: Telemetry sink (attach via :meth:`attach_telemetry`).
        self.telemetry = NULL_TELEMETRY
        #: Fault plane (attach via :meth:`attach_faults`).
        self.fault_injector = None
        self._piggyback_sent = BoundCounter("safetime.piggyback_sent")
        #: Local nodes whose inbox may hold deliveries (see :meth:`ready`).
        self._arrived: set = set()

    def set_piggyback_provider(self, provider) -> None:
        """Install the executor's grant source for batch flushes."""
        self.piggyback_provider = provider

    def attach_telemetry(self, telemetry) -> None:
        """Feed message traces and per-link counters to ``telemetry``."""
        self.telemetry = telemetry
        self.accounting.telemetry = telemetry
        if self.fault_injector is not None:
            self.fault_injector.telemetry = telemetry

    def attach_faults(self, injector) -> None:
        """Route every send/poll through ``injector``'s fault plane."""
        self.fault_injector = injector
        injector.telemetry = self.telemetry
        self.retry_policy = injector.retry_policy

    def attach_health(self, monitor) -> None:
        """Feed per-link health estimators from the send/poll boundary."""
        self.accounting.health = monitor

    def set_link(self, a: str, b: str, model: LatencyModel) -> None:
        """Configure the latency model between two nodes (both ways)."""
        self.accounting.set_model(a, b, model)

    #: A carrier that files in the sender's own call has no in-flight
    #: window, hence no ``_in_flight``.
    _in_flight = None

    def _file(self, kind: str, message: Message, size: Optional[int],
              flag: Optional[str], spanned: Message) -> None:
        """File one ``MSG_SEND``/``MSG_RECV`` record of ``message`` on a
        lit telemetry, as its facts (:mod:`repro.observability.trace`):
        its wire ``size`` (None: not charged here), the detail ``flag``
        set (``"batched"``, ``"call"`` or None) and the span of
        ``spanned`` — the message itself, or a call reply's request."""
        telemetry = self.telemetry
        ring = telemetry.trace_buffer
        ring.items.append((
            next(telemetry.seq), kind, message.time, message.src,
            message.dst, message.kind, spanned.src, spanned.epoch,
            spanned.trace, size, flag, _wall()))
        ring.appended += 1

    def wire_balanced(self) -> bool:
        """True when nothing is between a sender and an inbox; a carrier
        with no in-flight window is always balanced."""
        return True

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def send(self, message: Message) -> float:
        """Queue ``message`` for its destination; returns the wire delay.

        With a fault plane attached, the injector decides the message's
        fate first: injected drops are retried internally (raising
        :class:`~repro.core.errors.LinkDown` once the budget is spent),
        delayed/reordered messages are parked with the destination's
        injector and released at :meth:`poll`, duplicates are delivered
        twice and deduplicated at the poll boundary, and traffic touching
        a crashed node is swallowed (``lost``).
        """
        if message.msg_id == 0:
            message.msg_id = next(self._msg_ids)
        message.epoch = self.epoch
        telemetry = self.telemetry
        if telemetry.enabled and message.trace is None \
                and not message.kind.untraced:
            # The span, minted once: a fault-plane copy or retry
            # re-entering the pipeline keeps the original send's.
            message.trace = telemetry.spans.mint(
                message.src, telemetry.cause_cell.value)
        injector = self.fault_injector
        fate, ticks = "deliver", 0
        if injector is not None:
            fate, ticks = injector.on_send(message)
            if fate == "lost":
                return 0.0
        src, dst = message.src, message.dst
        remote = self._route(dst)
        if remote is None:
            raise TransportError(f"unknown destination node {dst!r}")
        if self.batching and fate in ("deliver", "duplicate"):
            # Queue for the next flush.  A mutable payload is isolated
            # now, so a sender mutating it between enqueue and flush
            # cannot change what ships; an immutable one is shared (copy
            # elision).  The frame is packed once at flush time either
            # way, so byte accounting stays honest.
            member = message if is_immutable(message.payload) \
                else self._open(self._pack(message)[0])
            if telemetry.enabled:
                self._file(_MSG_SEND, message, None, "batched", message)
            self.batcher.enqueue(src, dst, member)
            if fate == "duplicate":
                # The redundant copy rides right behind the original.
                if remote:
                    member = _fault_envelope(fate, member)
                else:
                    file_fate(injector, fate, 0, member)
                self.batcher.enqueue(src, dst, member)
            if injector is not None:
                late = injector.take_swaps(src, dst)
                if late:
                    self.batcher.extend(src, dst, late)
            return 0.0
        parcel, size = self._pack(message)
        delay = self.accounting.charge(src, dst, size)
        if telemetry.enabled:
            self._file(_MSG_SEND, message, size, None, message)
        if fate in ("deliver", "duplicate"):
            self._ship(src, dst, parcel, message.time, 1)
        if fate == "duplicate":
            self.accounting.charge(src, dst, size)
        if fate != "deliver":
            if remote:
                self._ship(src, dst, self._pack(
                    _fault_envelope(fate, message, ticks))[0],
                    message.time, 1)
            elif file_fate(injector, fate, ticks, self._open(parcel)):
                self._ship(src, dst, parcel, message.time, 1)
        if injector is not None and fate in ("deliver", "duplicate"):
            # A swap-parked message is released behind the link's next
            # delivery (already charged when it was parked).
            for late in injector.take_swaps(src, dst):
                self._ship(src, dst, self._pack(late)[0], message.time, 1)
        return delay

    def flush_batches(self, *, src: Optional[str] = None,
                      dst: Optional[str] = None) -> int:
        """Ship matching queued batches: one frame (and one latency
        charge) per non-empty link, members delivered in send order,
        piggybacked grants strictly after them.  Returns the number of
        logical messages flushed."""
        if not self.batching:
            return 0
        flushed = 0
        provider = self.piggyback_provider
        telemetry = self.telemetry
        for (s, d), members in self.batcher.take(src=src, dst=dst):
            if self._route(d) is None:
                continue    # destination forgotten after enqueue
            grants = provider(s, d) if provider is not None else []
            frame = BatchFrame(s, d, members, grants, epoch=self.epoch)
            parcel, size = self._pack_frame(frame)
            self.accounting.charge(s, d, size, len(members))
            if grants:
                self._piggyback_sent.inc(telemetry, len(grants))
            self._ship(s, d, parcel, members[-1].time, len(frame))
            flushed += len(members)
        return flushed

    def push_grants(self, src: str, dst: str,
                    grants: List[Message]) -> bool:
        """Ship a standalone grant-only frame ``src``→``dst``.

        One frame unblocks a peer known to be stalled, replacing the
        two-frame request/reply round trip it would otherwise issue.
        Grants bypass the fault plane (like call traffic: sync-protocol
        messages are not subject to data-plane faults).
        """
        if not self.batching or not grants or self._route(dst) is None:
            return False
        frame = BatchFrame(src, dst, [], list(grants), epoch=self.epoch)
        parcel, size = self._pack_frame(frame)
        self.accounting.charge(src, dst, size, 0)
        self._ship(src, dst, parcel, grants[-1].time, len(grants))
        return True

    def call(self, message: Message) -> Message:
        """Synchronous request/response (the RMI analogue).

        Both directions are charged to accounting, the reply from the
        size of the frame that actually came back.  Calls cannot reach a
        crashed node; what a dead link or a raising remote handler looks
        like is the carrier's business (see its ``_round_trip``).
        """
        if message.msg_id == 0:
            message.msg_id = next(self._msg_ids)
        message.epoch = self.epoch
        telemetry = self.telemetry
        if telemetry.enabled and message.trace is None \
                and not message.kind.untraced:
            message.trace = telemetry.spans.mint(
                message.src, telemetry.cause_cell.value)
        if self.fault_injector is not None:
            self.fault_injector.check_call(message)
        src, dst = message.src, message.dst
        if self.batching:
            # A call is a synchronisation point on this link: anything
            # queued either way must land first so in-flight counts match
            # the unbatched run exactly.
            self.flush_batches(src=src, dst=dst)
            self.flush_batches(src=dst, dst=src)
        remote = self._route(dst)
        if remote is None or \
                (not remote and dst not in self._call_handlers):
            raise TransportError(
                f"node {dst!r} accepts no calls "
                f"(registered: {sorted(self._call_handlers)})")
        parcel, size = self._pack(message)
        self.accounting.charge(src, dst, size)
        if telemetry.enabled:
            self._file(_MSG_SEND, message, size, "call", message)
        reply, size = self._round_trip(message, parcel)
        self.accounting.charge(dst, src, size)
        if telemetry.enabled:
            self._file(_MSG_RECV, reply, size, "call", message)
        return reply

    def poll(self, name: str, *, limit: Optional[int] = None) -> List[Message]:
        """Drain (up to ``limit``) queued messages for node ``name``."""
        inbox, lock = self._inbox(name)
        if self.batching and name in self.batcher.queues:
            # Poll is the flush point: every queue bound for this node
            # ships now, so delivery lands at the same pump points as the
            # unbatched per-message path.  (A carrier with receiver
            # threads may file the frame only in time for a later poll —
            # the polling loops already spin until quiescent.)
            self.flush_batches(dst=name)
        injector = self.fault_injector
        drained: List[Message] = []
        # Not ``with``: the lock-free carrier would pay a no-op one here.
        if lock is not None:
            lock.acquire()
        try:
            if injector is not None:
                inbox.extend(injector.release_due(name))
            while inbox and (limit is None or len(drained) < limit):
                message = inbox.popleft()
                if injector is not None and \
                        injector.suppress_duplicate(name, message):
                    continue
                drained.append(message)
            if not inbox:
                self._arrived.discard(name)
        finally:
            if lock is not None:
                lock.release()
        health = self.accounting.health
        if health is not None:
            health.on_poll(name, len(drained))
        if drained and self.telemetry.enabled:
            # No record of a grant's receipt (nor of its send): it has no
            # span, and link rows and ``safetime.piggybacked`` count it.
            for message in drained:
                if message.kind is not _GRANT:
                    self._file(_MSG_RECV, message, None, None, message)
        return drained

    def ready(self, name: str) -> bool:
        """Would a poll of node ``name`` move anything, or bring a parked
        delivery one tick closer?  ``pending(name) > 0`` without the
        counting: a message in the inbox, a batch queue bound for the
        node, a delivery the fault plane holds for it (its polls are the
        release clock), or a frame its carrier still has in flight.
        Every sweep over nodes asks this first and visits only those it
        names, so it reads kept state only: ``_arrived`` (filing adds,
        the emptying poll drops) and the batcher's and fault plane's
        tables, which keep no empty entry."""
        if name in self._arrived or name in self.batcher.queues:
            return True
        injector = self.fault_injector
        if injector is not None and injector.holds(name):
            return True
        in_flight = self._in_flight
        return in_flight is not None and in_flight(name) > 0

    def pending(self, name: Optional[str] = None) -> int:
        """Messages queued for ``name`` (or for every node): inboxes,
        unflushed batches, the fault plane's parked deliveries and
        whatever the carrier still holds in flight."""
        held = self.batcher.pending(name)
        if self._in_flight is not None:
            held += self._in_flight(name)
        if self.fault_injector is not None:
            held += self.fault_injector.held_pending(name)
        names = self.nodes() if name is None else [name]
        return held + sum(len(self._inbox(node)[0]) for node in names
                          if self._route(node) is False)

    def flush(self) -> int:
        """Drop every undelivered message (optimistic rollback support)."""
        dropped = self.batcher.clear()
        for node in self.nodes():
            inbox, lock = self._inbox(node)
            with lock or nullcontext():
                dropped += len(inbox)
                inbox.clear()
        self._arrived.clear()
        if self.fault_injector is not None:
            dropped += self.fault_injector.flush()
        return dropped
