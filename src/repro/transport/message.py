"""Wire messages between Pia nodes.

The paper interconnects nodes through Java RMI (section 2.2.1); the
properties Pia actually relies on are FIFO ordering per channel,
request/response calls (the safe-time protocol) and serialisation.  These
message types are the protocol-neutral representation every carrier
(in-memory, TCP, shared memory) moves.

Serialisation lives in :mod:`repro.transport.codec` (a compact binary
format; see that module for the frame layout), which imports the classes
defined here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class MessageKind(enum.Enum):
    """What a message means to the receiving node.

    The binary codec carries a kind as its index in definition order, so
    new kinds must be appended (reordering is a wire-format break that
    requires bumping :data:`repro.transport.codec.VERSION`).
    """

    #: A timestamped signal crossing a split net (channel traffic).
    SIGNAL = "signal"
    #: Safe-time request (conservative channels, paper section 2.2.2.1).
    SAFE_TIME_REQUEST = "safe-time-request"
    #: Safe-time response.
    SAFE_TIME_REPLY = "safe-time-reply"
    #: An unsolicited safe-time grant piggybacked on a batch frame
    #: (``time`` carries the grant, ``payload`` the peer's
    #: ``(injected, forwarded)`` counts).  Always safe to apply: a stale
    #: grant merely under-reports the peer's floor.
    SAFE_TIME_GRANT = "safe-time-grant"
    #: A Chandy-Lamport checkpoint mark (paper section 2.2.3).
    MARK = "mark"
    #: Coordinated restore command (optimistic recovery).
    RESTORE = "restore"
    #: Remote hardware server call / reply (paper section 2.3).
    HW_CALL = "hw-call"
    HW_REPLY = "hw-reply"
    #: Node management (attach, detach, shutdown).
    CONTROL = "control"


# Plain per-member attributes, read on every send: ``code`` is the codec's
# one-byte kind (an attribute skips the ``Enum.__hash__`` of a dict
# lookup), ``label`` the value (the ``message_kind`` record detail), and
# ``untraced`` marks the safe-time kinds, never minted a trace context —
# their rate is executor pacing, which would desynchronise the
# deterministic span ordinals (:mod:`repro.observability.spans`).
for _index, _kind in enumerate(MessageKind):
    _kind.code = _index
    _kind.label = _kind.value
    _kind.untraced = _kind in (MessageKind.SAFE_TIME_REQUEST,
                               MessageKind.SAFE_TIME_REPLY,
                               MessageKind.SAFE_TIME_GRANT)
del _index, _kind


@dataclass(slots=True)
class Message:
    """One unit of inter-node communication.

    Slotted: every signal crossing a channel allocates one of these, so
    dropping the per-instance ``__dict__`` measurably shrinks both the
    footprint and the construction cost of the messaging hot path.

    ``msg_id`` is 0 (unstamped) at construction; the sending transport
    stamps a per-transport-instance id at its send boundary.  Ids exist
    only to key duplicate suppression as ``(src, msg_id)``, so replies
    and piggybacked grants — which never enter the duplicate plane —
    legitimately travel unstamped.
    """

    kind: MessageKind
    src: str                       # source node name
    dst: str                       # destination node name
    channel: Optional[str] = None  # channel id for SIGNAL/MARK traffic
    #: Virtual time attached to the content (signal stamp, safe time...).
    time: float = 0.0
    payload: Any = None
    #: Correlates requests with replies.
    request_id: Optional[int] = None
    #: Per-transport send ordinal; 0 until the transport stamps it.
    msg_id: int = 0
    #: Causal trace context ``(ordinal, parent)`` minted by the sending
    #: transport when telemetry is enabled: the message's place in its
    #: ``src``'s send stream and the ``(origin, epoch, ordinal)`` span of
    #: the message that caused it (see :mod:`repro.observability.spans`);
    #: ``None`` when tracing is off, on safe-time traffic and on replies.
    trace: Optional[tuple] = None
    #: Migration epoch stamped by the sending transport.  Receivers drop
    #: frames from an older epoch: after a failover rolls the run back,
    #: stale traffic from the pre-failover world must not leak into the
    #: restored state (see :mod:`repro.distributed.migration`).
    epoch: int = 0

    def reply(self, kind: MessageKind, *, time: float = 0.0,
              payload: Any = None) -> "Message":
        """Build the response message for a request.

        The reply carries no trace context: a synchronous call and its
        response are one causal span, the request's, which the calling
        transport files the reply's receive under.
        """
        return Message(kind=kind, src=self.dst, dst=self.src,
                       channel=self.channel, time=time, payload=payload,
                       request_id=self.request_id)


@dataclass(slots=True)
class BatchFrame:
    """One coalesced wire frame: every message a source queued for one
    destination during a scheduler round, in send order, plus any
    piggybacked safe-time grants (applied strictly after the data
    messages, so the receiver's injected counts are current)."""

    src: str
    dst: str
    messages: list
    grants: list = field(default_factory=list)
    #: Migration epoch of the sending transport at flush time (stale
    #: frames are dropped whole — every member shares the sender's world).
    epoch: int = 0

    def __len__(self) -> int:
        return len(self.messages) + len(self.grants)

