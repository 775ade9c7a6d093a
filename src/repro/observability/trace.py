"""The bounded structured trace: typed records of what the kernel did.

Where metrics answer "how many", the trace answers "what happened, in
order": every record carries the virtual time it describes, the subject
(usually a subsystem or a directed link) and kind-specific detail fields.
The buffer is a :class:`Ring` — old records are dropped, never the run —
so tracing is safe to leave on for arbitrarily long simulations.  The
same ring (the only one in the package) is what the flight recorder and
every time-series sit on.

A lit run files some records per event or per message: a caused
``DISPATCH``, a ``STALL``, and ``MSG_SEND``/``MSG_RECV``.  Those are filed
as their *facts* — a flat tuple of scalars, never the message, event or
payload they describe — and become a :class:`TraceRecord` (or a record
dict) only when read, through the one materialiser below, keyed by kind.
What a reader sees is exactly the record the filing site used to build.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Dict, List, Optional


class TraceKind:
    """The record vocabulary.  Plain strings so records JSON-serialise."""

    #: A scheduler dispatched one event.
    DISPATCH = "dispatch"
    #: A scheduler stopped at a channel horizon with work remaining.
    STALL = "stall"
    #: A safe-time grant was accepted from a peer.
    GRANT = "grant"
    #: An optimistic straggler forced a coordinated rollback.
    ROLLBACK = "rollback"
    #: A local checkpoint image was saved.
    CHECKPOINT_SAVE = "checkpoint-save"
    #: A subsystem was restored from a checkpoint image.
    CHECKPOINT_RESTORE = "checkpoint-restore"
    #: A subsystem performed its Chandy-Lamport cut.
    SNAPSHOT_CUT = "snapshot-cut"
    #: A message entered the transport.
    MSG_SEND = "msg-send"
    #: A message was drained from a node's inbox.
    MSG_RECV = "msg-recv"
    #: A fault plan perturbed a message (drop/duplicate/delay/reorder).
    FAULT_INJECT = "fault-inject"
    #: A send attempt was retried (injected drop or real transport error).
    RETRY = "retry"
    #: A scheduled node crash took effect.
    NODE_CRASH = "node-crash"
    #: A failed node was restored from the last consistent snapshot.
    NODE_RECOVER = "node-recover"
    #: A node moved to a fresh worker (live migration or failover).
    MIGRATION = "migration"
    #: An executor gave up on the run (deadlock, quiesce timeout).
    ABORT = "abort"


#: Core field names details must never shadow (see TraceRecord.to_dict).
_CORE_FIELDS = frozenset(("seq", "kind", "time", "subject"))


class TraceRecord(tuple):
    """One structured observation: the six-tuple ``(seq, kind, time,
    subject, details, wall)`` with read-only named fields.

    A tuple because :meth:`~.telemetry.Telemetry.emit` builds it with
    one C call, ``tuple.__new__(TraceRecord, fields)``, where any
    ``__init__`` would be a Python frame per record (the per-event kinds
    are not built at all until read: see :class:`TraceBuffer`).  The
    constructor below is for every other site.  ``wall`` is the wall
    clock at record time —
    nondeterministic, so excluded from equality and :meth:`to_dict` (the
    wall-clock timeline view reads it straight off the record).  Defining
    ``__eq__`` drops tuple's hash: a record holds a dict, so it has none.
    """

    __slots__ = ()

    def __new__(cls, seq: int, kind: str, time: float, subject: str,
                details: Optional[dict] = None, wall: float = 0.0):
        return tuple.__new__(cls, (seq, kind, time, subject,
                                   {} if details is None else details, wall))

    seq = property(itemgetter(0), doc="Per-telemetry monotone ordinal.")
    kind = property(itemgetter(1), doc="A :class:`TraceKind` value.")
    time = property(itemgetter(2), doc="Virtual time the record describes.")
    subject = property(itemgetter(3),
                       doc='Subsystem, component or "src->dst" link.')
    details = property(itemgetter(4), doc="Kind-specific detail fields.")
    wall = property(itemgetter(5), doc="Wall clock at record time.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)      # unpickling calls __new__ with the fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceRecord:
            return NotImplemented
        return self[:5] == other[:5]

    def __ne__(self, other: object) -> bool:     # tuple's would read wall
        if other.__class__ is not TraceRecord:
            return NotImplemented
        return self[:5] != other[:5]

    def __repr__(self) -> str:
        return (f"TraceRecord(seq={self.seq!r}, kind={self.kind!r}, "
                f"time={self.time!r}, subject={self.subject!r}, "
                f"details={self.details!r}, wall={self.wall!r})")

    def to_dict(self) -> dict:
        """Flatten into one dict; detail keys that would shadow a core
        field are emitted namespaced as ``detail.<key>`` instead."""
        data = {"seq": self.seq, "kind": self.kind, "time": self.time,
                "subject": self.subject}
        for key, value in self.details.items():
            data[f"detail.{key}" if key in _CORE_FIELDS else key] = value
        return data


def check_capacity(capacity: int) -> int:
    """The one ring-capacity rule: at least one item, or ``ValueError``."""
    if capacity < 1:
        raise ValueError(f"ring capacity must be >= 1: {capacity}")
    return capacity


class Ring:
    """The bounded ring every recorder here sits on: the newest
    ``capacity`` items, oldest first, plus how many were ever appended —
    old items are dropped, never the run, so recording is safe to leave
    on for arbitrarily long simulations."""

    __slots__ = ("capacity", "appended", "items")

    def __init__(self, capacity: int) -> None:
        self.capacity = check_capacity(capacity)
        #: The deque: a per-event site appends here and bumps
        #: :attr:`appended` itself.
        self.items: deque = deque(maxlen=capacity)
        #: Items ever appended (evicted ones included).
        self.appended = 0

    def append(self, item) -> None:
        self.items.append(item)
        self.appended += 1

    @property
    def dropped(self) -> int:
        """Items evicted by the ring bound."""
        return self.appended - len(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


# ----------------------------------------------------------------------
# per-event kinds, filed as their facts
# ----------------------------------------------------------------------
#
# Each layout starts ``(seq, kind, time, ...)`` and ends with ``wall``;
# what lies between is the kind's:
#
# ``DISPATCH``  ``(..., subject, event kind, cause span, before, wall)``
# ``STALL``     ``(..., subject, horizon, next event, cause span or None,
#               wall)``
# ``MSG_SEND`` / ``MSG_RECV``  ``(..., src, dst, message kind, span origin,
#               epoch, trace context or None, bytes or None, flag, wall)``
#               — ``flag`` is the detail set True (``"batched"``,
#               ``"call"``) or None; a call's reply is filed under its
#               request's span, hence an origin of its own.
#
# Only scalars, spans and trace contexts (tuples of scalars) ride in a
# facts tuple, so a record keeps nothing of the run alive, and a field a
# later stage may restamp (the epoch) is copied, not referenced.


class _Subjects(dict):
    """``(src, dst) -> "src->dst"``: a message record's subject, made the
    first time the link is read."""

    def __missing__(self, link):
        subject = self[link] = "%s->%s" % link
        return subject


_subjects = _Subjects()


def _message(facts) -> dict:
    (seq, kind, time, src, dst, message_kind, origin, epoch, context, size,
     flag, wall) = facts
    record = {"seq": seq, "kind": kind, "time": time,
              "subject": _subjects[src, dst],
              "message_kind": message_kind.label}
    if size is not None:
        record["bytes"] = size
    if flag is not None:
        record[flag] = True
    if context is not None:
        record["span"] = (origin, epoch, context[0])
        record["parent"] = context[1]
    record["wall"] = wall
    return record


def _dispatch(facts) -> dict:
    seq, kind, time, subject, event_kind, cause, before, wall = facts
    return {"seq": seq, "kind": kind, "time": time, "subject": subject,
            "event": event_kind.label, "cause": cause, "before": before,
            "wall": wall}


def _stall(facts) -> dict:
    seq, kind, time, subject, horizon, next_event, cause, wall = facts
    record = {"seq": seq, "kind": kind, "time": time, "subject": subject,
              "horizon": horizon, "next_event": next_event}
    if cause is not None:
        record["cause"] = cause
    record["wall"] = wall
    return record


#: kind -> ``facts -> record dict`` (:func:`record_dicts`' shape, whose
#: detail keys never shadow a core field): the one materialiser.
_FACTS = {TraceKind.DISPATCH: _dispatch, TraceKind.STALL: _stall,
          TraceKind.MSG_SEND: _message, TraceKind.MSG_RECV: _message}


class TraceBuffer(Ring):
    """A ring of trace records, bounded, never blocking."""

    __slots__ = ()

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__(capacity)

    def __iter__(self):
        """The held records as :class:`TraceRecord` objects, oldest
        first: a record filed as itself as is, a facts tuple (a plain
        ``tuple``) built into the record its filing site describes."""
        for item in self.items:
            if item.__class__ is tuple:
                details = _FACTS[item[1]](item)
                del details["seq"], details["kind"], details["time"]
                subject = details.pop("subject")
                item = tuple.__new__(TraceRecord, (
                    item[0], item[1], item[2], subject, details,
                    details.pop("wall")))
            yield item

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.items:
            kind = record[1]    # a record's and a facts tuple's alike
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))


def record_dicts(records) -> List[dict]:
    """The one normaliser: ``records`` (a :class:`TraceBuffer`, or
    :class:`TraceRecord` objects or already-flattened dicts) as the
    record dicts every reader takes — :meth:`TraceRecord.to_dict` plus
    the ``wall`` stamp; a facts tuple is flattened straight from its
    facts.  Report bundles, flight dumps, the timeline export and the
    causal linker all speak this shape."""
    items = records.items if isinstance(records, TraceBuffer) else records
    facts = _FACTS
    return [facts[item[1]](item) if item.__class__ is tuple
            else item if isinstance(item, dict)
            else dict(item.to_dict(), wall=item.wall)
            for item in items]
