"""Events and the per-subsystem event queue.

The scheduler of every subsystem owns one :class:`EventQueue`.  Events are
delivered in strict :class:`~repro.core.timestamp.Timestamp` order, which —
together with the monotone sequence numbers the queue assigns — makes every
simulation run deterministic.

Both classes exist twice: the pure-python implementations defined here
(always importable, and exported as :data:`PythonEvent` /
:data:`PythonEventQueue` for differential testing) and a C twin in
``repro._native._core`` with identical semantics.  When the compiled
extension is present and ``PIA_PURE`` is unset, the module-level
``Event`` / ``EventQueue`` names rebind to the native types at import
time, so every consumer — scheduler, checkpoints, migration — picks up
the fast backend without changing a line.
"""

from __future__ import annotations

import enum
import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Optional

from .errors import CausalityError
from .timestamp import Timestamp


class EventKind(enum.Enum):
    """What an event means to the scheduler."""

    #: A value change on a net, destined for one port.
    SIGNAL = "signal"
    #: Resume a component blocked on ``WaitUntil``/``Sync``.
    WAKE = "wake"
    #: An edge-triggered interrupt pulse destined for one port.
    INTERRUPT = "interrupt"
    #: Run an arbitrary callback (checkpoint marks, run-level switches).
    CONTROL = "control"


# Dense per-member index used by the scheduler's dispatch table: tuple
# indexing via ``kind.code`` skips ``Enum.__hash__`` — a Python-level
# function call — on every single dispatch.  ``label`` is the member's
# value as a plain attribute: ``Enum.value`` is a Python-level descriptor,
# and the traced dispatch path writes the label into every record.
for _index, _kind in enumerate(EventKind):
    _kind.code = _index
    _kind.label = _kind.value
del _index, _kind


class Event:
    """One schedulable occurrence.

    ``target`` is interpreted per kind: the destination :class:`Port` for
    ``SIGNAL``/``INTERRUPT``, the :class:`Component` for ``WAKE``, and a
    zero-argument callable for ``CONTROL``.

    A handwritten slotted class rather than a dataclass: millions of
    these are allocated per run, and a plain ``__init__`` constructs in
    about a third of the time of a frozen-dataclass ``__init__`` (which
    pays for ``__setattr__`` interception), while ``dataclasses.replace``
    — the old rescheduling path — cost another ~2µs per call.  Instances
    are treated as immutable by convention; nothing in the scheduler
    mutates a constructed event.
    """

    __slots__ = ("ts", "kind", "code", "target", "payload", "token", "cause")

    def __init__(self, ts: Timestamp, kind: EventKind, target: Any,
                 payload: Any = None, token: Optional[int] = None,
                 cause: Optional[tuple] = None) -> None:
        if ts.__class__ is not Timestamp and isinstance(ts, (float, int)):
            # A bare number means "this virtual time at default signal
            # priority" — the common case for self-rescheduling ticks.
            ts = Timestamp(float(ts))
        self.ts = ts
        self.kind = kind
        #: Dense :class:`EventKind` index the dispatch table is keyed by —
        #: stored, so the run loop reads it as on the native type.
        self.code = kind.code
        self.target = target
        self.payload = payload
        #: An opaque token a blocked component uses to recognise its
        #: wake-up.
        self.token = token
        #: Span ``(origin, epoch, ordinal)`` of the message whose
        #: dispatch scheduled this event (``None`` for local / untraced
        #: work) — stamped by the scheduler when tracing is on.
        self.cause = cause

    @property
    def time(self) -> float:
        """Virtual time of this event (``ts.time``)."""
        return self.ts.time

    @property
    def priority(self) -> int:
        """Tie-break band of this event (``ts.priority``)."""
        return self.ts.priority

    @property
    def seq(self) -> int:
        """Queue sequence number of this event (``ts.seq``)."""
        return self.ts.seq

    def with_cause(self, cause: Optional[tuple]) -> "Event":
        """Return a copy carrying ``cause`` as its cause span."""
        return Event(self.ts, self.kind, self.target, self.payload,
                     self.token, cause)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Event:
            return NotImplemented
        return (self.ts == other.ts and self.kind is other.kind
                and self.target == other.target
                and self.payload == other.payload
                and self.token == other.token
                and self.cause == other.cause)

    def __hash__(self) -> int:
        return hash((self.ts, self.kind, self.target))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"ts={self.ts!r}", f"kind={self.kind!r}",
                 f"target={self.target!r}"]
        if self.payload is not None:
            parts.append(f"payload={self.payload!r}")
        if self.token is not None:
            parts.append(f"token={self.token!r}")
        if self.cause is not None:
            parts.append(f"cause={self.cause!r}")
        return f"Event({', '.join(parts)})"

    def __getstate__(self):
        # ``code`` is derived from ``kind`` and stays out of the pickle.
        return (self.ts, self.kind, self.target, self.payload,
                self.token, self.cause)

    def __setstate__(self, state) -> None:
        (self.ts, self.kind, self.target, self.payload,
         self.token, self.cause) = state
        self.code = self.kind.code


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Its surface is what the kernel asks of it: the scheduler pushes,
    pops through :meth:`pop_ready` and reads :meth:`peek` /
    :meth:`next_time`; a checkpoint takes :meth:`snapshot` and a restore
    reinstates it with :meth:`restore`.  Queued events are never edited
    in place.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[Timestamp, Event]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event, *, now: float = float("-inf")) -> Event:
        """Insert ``event``, assigning it a fresh sequence number.

        ``now`` is the caller's current virtual time; scheduling into the
        past raises :class:`CausalityError` (the paper's consistency rule:
        subsystem time never exceeds any undelivered message's stamp).
        """
        ts = event.ts
        if ts.time < now:
            raise CausalityError(
                f"event at {ts.time:g} scheduled in the past of {now:g}"
            )
        # Stamp in place rather than re-allocating a whole Event just to
        # change the sequence number: every push site constructs a fresh
        # event (or hands ownership over, like a ``with_cause`` copy), so
        # mutating ``ts`` here is unobservable — and it halves the
        # allocations on the hottest call in the tree.
        stamped = Timestamp(ts.time, ts.priority, next(self._seq))
        event.ts = stamped
        heappush(self._heap, (stamped, event))
        return event

    def pop_ready(self, bound: float) -> Optional[Event]:
        """Remove and return the earliest event iff its time is ``<= bound``.

        ``None`` when the head lies past ``bound`` or the queue is empty:
        the scheduler's one question — "which event is next and may it
        run" — answered in one call, without exposing the heap.
        """
        heap = self._heap
        # ``not >`` rather than ``<=``: a NaN bound holds nothing back,
        # as on the C queue.
        if heap and not heap[0][0].time > bound:
            return heappop(heap)[1]
        return None

    def peek(self) -> Optional[Event]:
        """Return the earliest event without removing it, or ``None``."""
        return self._heap[0][1] if self._heap else None

    def next_time(self) -> float:
        """Virtual time of the earliest event, ``inf`` when empty."""
        return self._heap[0][0].time if self._heap else float("inf")

    def snapshot(self) -> list[Event]:
        """Return the pending events in delivery order (queue unchanged)."""
        return [entry[1] for entry in sorted(self._heap)]

    def restore(self, events: list[Event]) -> None:
        """Replace the queue contents with ``events`` (stamps preserved)."""
        heap = [(event.ts, event) for event in events]
        heapify(heap)
        self._heap = heap


#: The pure-python implementations, always importable under stable names
#: so the differential test suite can compare them against the native
#: twins regardless of which backend is live.
PythonEvent = Event
PythonEventQueue = EventQueue

from .. import _native  # noqa: E402  (after the pure definitions — the
#                         C module's init imports this package's siblings)

if _native.core is not None:
    Event = _native.core.Event          # type: ignore[misc, assignment]
    EventQueue = _native.core.EventQueue  # type: ignore[misc, assignment]
