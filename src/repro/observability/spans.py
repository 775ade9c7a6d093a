"""Causal trace context: a span is a parent pointer.

Every data-plane :class:`~repro.transport.message.Message` carries a
trace context minted by the sending transport — a plain pair
``(ordinal, parent)`` that pickles as-is across process boundaries and
batch frames:

* ``ordinal`` — the message's place in its origin node's send stream;
  the message's *span* is ``(origin, epoch, ordinal)``, whose origin and
  migration epoch are the message's own ``src`` and ``epoch``;
* ``parent`` — the span of the message whose dispatch caused this send,
  or ``None`` at a chain root.

Nothing else travels.  The chain root (trace id) and the hop count (the
message edges from the root) are derived when the trace is read, by
walking parents (:func:`causal_chains`), and a span is rendered as the
string ``"origin:ordinal"`` (``"origin@eN:ordinal"`` once a failover
bumps the epoch) only where a document needs one: Chrome flow ids and
the keys of :func:`causal_chains`.

Ordinals are per-origin-node counters.  A node's sends are driven by its
own deterministic virtual execution, so for a given scenario and seed
the minted spans are identical under the cooperative, threaded and
multiprocess executors — which is what makes traces (and everything
derived from them, e.g. stall attribution) comparable across deployment
modes.  Safe-time protocol messages are never minted (see
``MessageKind.untraced``): their emission rate is a property of the
executor's wall-clock pacing, not of the simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .trace import TraceKind, record_dicts

if TYPE_CHECKING:  # pragma: no cover
    from ..transport.message import Message

#: One message's identity: ``(origin, epoch, ordinal)``.
Span = Tuple[str, int, int]
#: Wire form of one trace context: ``(ordinal, parent span or None)``.
TraceContext = Tuple[int, Optional[Span]]


class SpanMinter:
    """Mints deterministic ordinals, one stream per origin node.

    Not locked: a node's sends all happen on the thread (or process)
    executing that node, so each per-origin counter is only ever touched
    from one thread.
    """

    def __init__(self) -> None:
        self._ordinals: Dict[str, int] = {}

    def mint(self, origin: str, cause: Optional[Span] = None) -> TraceContext:
        """Mint the context for a message sent by ``origin``; ``cause``
        is the span whose dispatch triggered the send (``None`` for a
        spontaneous, chain-root send)."""
        ordinal = self._ordinals.get(origin, 0) + 1
        self._ordinals[origin] = ordinal
        return (ordinal, cause)

    def ordinals(self) -> Dict[str, int]:
        """Current per-origin counters (transferred on migration so the
        moved node's ordinal stream continues where it left off)."""
        return dict(self._ordinals)

    def load_ordinals(self, ordinals: Dict[str, int]) -> None:
        self._ordinals.update(ordinals)


def span_of(message: Message) -> Optional[Span]:
    """``message``'s span, or ``None`` when it carries no context."""
    trace = message.trace
    return None if trace is None else (message.src, message.epoch, trace[0])


def span_name(span) -> str:
    """The display string of a span (a tuple, or the list a JSON
    round-trip makes of it)."""
    origin, epoch, ordinal = span
    return f"{origin}@e{epoch}:{ordinal}" if epoch else f"{origin}:{ordinal}"


def causal_chains(records) -> dict:
    """Link a trace's message records into causal chains.

    Accepts :class:`~.trace.TraceRecord` objects or their dicts and
    returns, keyed by :func:`span_name`::

        {"sends":            {span: send-record},
         "receives":         {span: [recv-record, ...]},
         "orphan_receives":  [recv-record, ...],   # span never sent
         "broken_parents":   [send-record, ...],   # parent span unknown
         "trace_ids":        {span: root span},
         "hops":             {span: message edges from the root},
         "max_hop":          int}

    The root of a chain is its earliest recorded ancestor: a send whose
    parent is ``None`` — or, on a truncated ring, was evicted.  An orphan
    receive means a message was drained whose send was never recorded —
    on a complete trace that is a propagation bug.  Duplicated deliveries
    are *not* orphans: every copy shares the original span, so they land
    as extra entries under ``receives[span]``.
    """
    sends: Dict[str, dict] = {}
    parents: Dict[str, Optional[str]] = {}
    receives: Dict[str, List[dict]] = {}
    orphans: List[dict] = []
    dicts = record_dicts(records)
    for rec in dicts:
        if rec.get("kind") == TraceKind.MSG_SEND and "span" in rec:
            name = span_name(rec["span"])
            if name not in sends:
                sends[name] = rec
                parent = rec.get("parent")
                parents[name] = None if parent is None else span_name(parent)
    for rec in dicts:
        if rec.get("kind") == TraceKind.MSG_RECV and "span" in rec:
            name = span_name(rec["span"])
            receives.setdefault(name, []).append(rec)
            if name not in sends:
                orphans.append(rec)
    broken = [sends[name] for name, parent in parents.items()
              if parent is not None and parent not in sends]
    trace_ids: Dict[str, str] = {}
    hops: Dict[str, int] = {}
    for span in sends:
        path = []
        while span not in hops:
            parent = parents[span]
            if parent in sends:
                path.append(span)
                span = parent
            else:
                trace_ids[span], hops[span] = span, 0
        for child in reversed(path):
            parent = parents[child]
            trace_ids[child] = trace_ids[parent]
            hops[child] = hops[parent] + 1
    return {"sends": sends, "receives": receives,
            "orphan_receives": orphans, "broken_parents": broken,
            "trace_ids": trace_ids, "hops": hops,
            "max_hop": max(hops.values(), default=0)}
