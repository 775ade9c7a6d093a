"""Causal trace context: spans minted per message, linked across nodes.

Every data-plane :class:`~repro.transport.message.Message` carries a
compact trace context minted by the sending transport — a plain tuple
``(trace_id, span, parent, hop)`` so it pickles as-is across process
boundaries and batch frames:

* ``trace_id`` — the root span of the causal chain (equal to ``span``
  for a chain's first message),
* ``span`` — this message's own identity, ``"<origin-node>:<ordinal>"``,
* ``parent`` — the span of the message whose dispatch caused this send
  (``None`` at a chain root),
* ``hop`` — a Lamport-style hop counter: the number of message edges
  from the chain root.

Span ordinals are per-origin-node counters.  A node's sends are driven
by its own deterministic virtual execution, so for a given scenario and
seed the minted ids are identical under the cooperative, threaded and
multiprocess executors — which is what makes traces (and everything
derived from them, e.g. stall attribution) comparable across deployment
modes.

Safe-time protocol messages (``SAFE_TIME_REQUEST``/``REPLY``/``GRANT``)
are deliberately *not* minted: their emission rate is a property of the
executor's wall-clock pacing, not of the simulation, and minting them
would desynchronise the deterministic ordinal streams above.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .trace import TraceKind, record_dicts

if TYPE_CHECKING:  # pragma: no cover
    from ..transport.message import Message

#: Wire form of one trace context (see module docstring).
TraceContext = Tuple[str, str, Optional[str], int]

#: Message-kind *values* that never carry a trace context (see module
#: docstring).  Kept as the enum values rather than the enum members so
#: this module — which the whole observability package loads — never
#: imports the transport package (the transports import observability).
UNTRACED_KINDS = frozenset((
    "safe-time-request",
    "safe-time-reply",
    "safe-time-grant",
))


class SpanMinter:
    """Mints deterministic span ids, one ordinal stream per origin node.

    Not locked: a node's sends all happen on the thread (or process)
    executing that node, so each per-origin counter is only ever touched
    from one thread.
    """

    def __init__(self) -> None:
        self._ordinals: Dict[str, int] = {}
        #: Migration epoch.  Epoch 0 keeps the legacy ``origin:ordinal``
        #: span format; after a failover bumps the epoch, spans are
        #: namespaced ``origin@eN:ordinal`` so a restarted ordinal stream
        #: can never collide with spans minted before the rollback.
        self.epoch = 0

    def mint(self, origin: str,
             cause: Optional[TraceContext] = None) -> TraceContext:
        """Mint the context for a message sent by ``origin``.

        ``cause`` is the context of the message whose dispatch triggered
        this send (``None`` for a spontaneous, chain-root send).
        """
        ordinal = self._ordinals.get(origin, 0) + 1
        self._ordinals[origin] = ordinal
        stem = origin if self.epoch == 0 else f"{origin}@e{self.epoch}"
        span = f"{stem}:{ordinal}"
        if cause is None:
            return (span, span, None, 0)
        return (cause[0], span, cause[1], cause[3] + 1)

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def ordinals(self) -> Dict[str, int]:
        """Current per-origin counters (transferred on migration so the
        moved node's ordinal stream continues where it left off)."""
        return dict(self._ordinals)

    def load_ordinals(self, ordinals: Dict[str, int]) -> None:
        self._ordinals.update(ordinals)

    def reset(self) -> None:
        self._ordinals.clear()
        self.epoch = 0


def ensure_context(telemetry, message: Message) -> Optional[TraceContext]:
    """Mint ``message``'s trace context at the transport send boundary.

    Idempotent: a message that already carries a context (a fault-plane
    duplicate or retry re-entering the transport) keeps it, so every copy
    of a message shares the original send's span.
    """
    # ``kind.untraced`` is precomputed from UNTRACED_KINDS where the
    # enum is defined (transport.message): reading one attribute beats
    # the Python-level ``Enum.value`` descriptor plus a set probe on
    # every send.
    if message.trace is None and not message.kind.untraced:
        message.trace = telemetry.spans.mint(message.src,
                                             telemetry.cause_cell.value)
    return message.trace


def span_details(context: Optional[TraceContext]) -> dict:
    """The detail kwargs a trace record carries for one context."""
    if context is None:
        return {}
    return {"trace_id": context[0], "span": context[1],
            "parent": context[2], "hop": context[3]}


def span_origin(span: str) -> str:
    """The node that minted ``span`` (the prefix of its id, minus any
    post-failover ``@eN`` epoch namespace)."""
    stem = span.rsplit(":", 1)[0]
    return stem.rsplit("@e", 1)[0]


def causal_chains(records) -> dict:
    """Link a trace's message records into causal chains.

    Accepts :class:`~.trace.TraceRecord` objects or their dicts and
    returns::

        {"sends":            {span: send-record},
         "receives":         {span: [recv-record, ...]},
         "orphan_receives":  [recv-record, ...],   # span never sent
         "broken_parents":   [send-record, ...],   # parent span unknown
         "max_hop":          int}

    An orphan receive means a message was drained whose send was never
    recorded — on a complete trace that is a propagation bug (on a
    truncated ring it just means the send was evicted).  Duplicated
    deliveries are *not* orphans: every copy shares the original span,
    so they land as extra entries under ``receives[span]``.
    """
    sends: Dict[str, dict] = {}
    receives: Dict[str, List[dict]] = {}
    orphans: List[dict] = []
    broken: List[dict] = []
    max_hop = 0
    dicts = record_dicts(records)
    for rec in dicts:
        if rec.get("kind") == TraceKind.MSG_SEND and "span" in rec:
            sends.setdefault(rec["span"], rec)
            max_hop = max(max_hop, rec.get("hop", 0))
    for rec in dicts:
        if rec.get("kind") != TraceKind.MSG_RECV or "span" not in rec:
            continue
        span = rec["span"]
        receives.setdefault(span, []).append(rec)
        if span not in sends:
            orphans.append(rec)
    for rec in sends.values():
        parent = rec.get("parent")
        if parent is not None and parent not in sends:
            broken.append(rec)
    return {"sends": sends, "receives": receives,
            "orphan_receives": orphans, "broken_parents": broken,
            "max_hop": max_hop}
