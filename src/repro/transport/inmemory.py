"""The deterministic in-memory transport.

Carries :class:`~repro.transport.message.Message` objects between Pia
nodes living in one process, preserving the properties Pia gets from RMI:
FIFO ordering per directed link, synchronous request/response calls, and
(simulated) serialisation — a message whose payload could be mutated is
delivered as the decode of its encode, so nodes cannot share mutable
state by accident, exactly as if they had crossed a real wire; one with
a provably immutable payload is handed through by reference.

Every message is charged against :class:`NetworkAccounting`, which is how
the "geographically distributed" experiments obtain their modelled network
cost while the whole simulation runs deterministically in one process.

This is the thinnest carrier of :class:`~repro.transport.pipeline.Transport`:
a deque per node, delivery in the sender's own call.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

from ..core.errors import TransportError
from ..core.fastcopy import is_immutable
from .codec import decode, encode, encode_batch
from .latency import SAME_HOST, LatencyModel
from .message import BatchFrame, Message
from .pipeline import CallHandler, Transport


class InMemoryTransport(Transport):
    """FIFO message passing between registered nodes, with accounting."""

    def __init__(self, *, default_model: LatencyModel = SAME_HOST,
                 batching: bool = False) -> None:
        super().__init__(default_model=default_model, batching=batching)
        self._inboxes: Dict[str, deque] = {}

    # benchmarks/ledger/tracer.py (and probes.py) bind these five with
    # ``vars(InMemoryTransport)[name]`` to time and tap the in-memory
    # layer from outside: they must be *in this class body*, so the
    # shared pipeline functions are rebound here, not wrapped.
    send = Transport.send
    poll = Transport.poll
    call = Transport.call
    flush_batches = Transport.flush_batches
    push_grants = Transport.push_grants

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str,
                 call_handler: Optional[CallHandler] = None) -> None:
        if name in self._inboxes:
            raise TransportError(f"node {name!r} already registered")
        self._inboxes[name] = deque()
        if call_handler is not None:
            self._call_handlers[name] = call_handler

    def nodes(self) -> list:
        return sorted(self._inboxes)

    # ------------------------------------------------------------------
    # carrier hooks (the codec names are this module's own globals: the
    # ledger tracer patches them here to count the in-memory codec work)
    # ------------------------------------------------------------------
    def _route(self, dst: str) -> Optional[bool]:
        return False if dst in self._inboxes else None

    def _pack(self, message: Message) -> Tuple[Message, int]:
        """Weighed by its encode; the parcel is the message itself when
        its payload is provably immutable (as on the batched path), else
        the decoded copy that isolates the receiver."""
        blob = encode(message)
        return (message if is_immutable(message.payload) else decode(blob),
                len(blob))

    def _pack_frame(self, frame: BatchFrame) -> Tuple[BatchFrame, int]:
        """Members were isolated at enqueue; the frame is serialised only
        to weigh it."""
        return frame, len(encode_batch(frame))

    def _open(self, parcel: Message) -> Message:
        return parcel

    def _ship(self, src: str, dst: str, parcel, time: float,
              count: int) -> None:
        inbox = self._inboxes[dst]
        if type(parcel) is BatchFrame:
            inbox.extend(parcel.messages)
            inbox.extend(parcel.grants)
        else:
            inbox.append(parcel)
        self._arrived.add(dst)

    def _inbox(self, name: str):
        try:
            return self._inboxes[name], None    # one thread: no lock
        except KeyError:
            raise TransportError(f"unknown node {name!r}") from None

    def _round_trip(self, message: Message,
                    parcel: Message) -> Tuple[Message, int]:
        """The destination's call handler runs inline."""
        reply = self._call_handlers[message.dst](parcel)
        if not isinstance(reply, Message):
            raise TransportError(
                f"call handler of {message.dst!r} returned "
                f"{type(reply).__name__}, not Message")
        return self._pack(reply)
