"""The per-subsystem scheduler: Pia's two-level virtual time.

The scheduler enforces the paper's core invariant (section 2.1): *system
(subsystem) time is always less than or equal to all component local
times* at every delivery, so a component resumed from a receive is certain
its view of the world is up to date.  Components run ahead of subsystem
time freely; subsystem time only advances by consuming the event queue in
timestamp order.

The paper implements this on the Java VM by making sure its thread
scheduler only ever sees one runnable thread (section 3.1).  Here the same
effect — total control over execution order — falls out of running
component generators inline from a single dispatch loop.

The dispatch loop is the hottest code in the tree (every signal, wake
and control callback in every subsystem flows through it), so it exists
once (:meth:`Scheduler.run`) and is written flat: a precomputed per-kind
handler table instead of an ``if``/``elif`` chain, loop-invariant
attribute lookups hoisted into locals, one ``pop_ready(bound)`` queue
call per event for "is the head due, and if so hand it over", and the
traced path a branch of its own, so a telemetry-off run touches no
telemetry state per event.  Even lit, a dispatch files a ``DISPATCH``
record only when it has a cause (its chain began at a channel crossing):
that, and the instant the subsystem had reached before it, is all stall
attribution reads; every other dispatch is counted, not recorded.  The
record is filed as its facts (:mod:`repro.observability.trace`), built
into a record only when the trace is read.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Callable, Optional

from ..observability import NULL_TELEMETRY, BoundCounter, TraceKind
from ..observability.flight import STRIDE_MASK as _FLIGHT_MASK
from .errors import CausalityError, SimulationError
from .events import Event, EventKind, EventQueue

_DISPATCH = TraceKind.DISPATCH
_STALL = TraceKind.STALL
_wall = _time.time

if TYPE_CHECKING:  # pragma: no cover
    from .component import Component
    from .port import Port
    from .subsystem import Subsystem


class Scheduler:
    """Dispatches events for one subsystem in deterministic time order."""

    __slots__ = ("subsystem", "queue", "now", "reached", "before",
                 "dispatched", "stalls", "post_step_hooks", "telemetry",
                 "_handlers", "_stall_counter", "_dispatched_counter")

    def __init__(self, subsystem: "Subsystem") -> None:
        self.subsystem = subsystem
        self.queue = EventQueue()
        #: Subsystem virtual time (the paper's *system time*).
        self.now = 0.0
        #: The highest instant ever dispatched, and the highest one
        #: dispatched before the current instant began — the baseline of
        #: the gap stall attribution may charge, carried by a caused
        #: dispatch's record.  A rollback lowers neither; lit runs only.
        self.reached = 0.0
        self.before = 0.0
        #: Events dispatched since construction.
        self.dispatched = 0
        #: Number of times :meth:`run` stopped early at a horizon
        #: (the stalls of paper Fig. 3).
        self.stalls = 0
        #: Called after every dispatched event (switchpoint evaluation).
        self.post_step_hooks: list[Callable[[Event], None]] = []
        #: Telemetry sink; the owning Simulator/CoSimulation attaches a
        #: live one via Subsystem.attach_telemetry.
        self.telemetry = NULL_TELEMETRY
        self._stall_counter = BoundCounter("scheduler.stalls")
        self._dispatched_counter = BoundCounter("scheduler.dispatched")
        #: Per-kind dispatch table, indexed by ``Event.code``: one
        #: tuple index replaces the old ``if``/``elif`` kind chain (and
        #: avoids hashing an enum member) on every event.
        table = {
            EventKind.SIGNAL: self._dispatch_signal,
            EventKind.INTERRUPT: self._dispatch_signal,
            EventKind.WAKE: self._dispatch_wake,
            EventKind.CONTROL: self._dispatch_control,
        }
        self._handlers = tuple(table[kind] for kind in EventKind)

    # ------------------------------------------------------------------
    def schedule(self, event: Event) -> Event:
        """Enqueue ``event``; scheduling into the past is a causality error.

        With tracing on, an event scheduled while a caused event is being
        dispatched inherits that dispatch's cause span, so causal chains
        survive local event hops between message edges.  (A site that
        already knows the span builds its event with it —
        :meth:`~repro.distributed.channel.ChannelEndpoint.inject` — and
        pays no copy here.)
        """
        telemetry = self.telemetry
        if telemetry.enabled and event.cause is None:
            cause = telemetry.cause_cell.value
            if cause is not None:
                event = event.with_cause(cause)
        return self.queue.push(event, now=self.now)

    def next_event_time(self) -> float:
        """Virtual time of the earliest pending event (``inf`` when idle)."""
        return self.queue.next_time()

    # ------------------------------------------------------------------
    def _record_stall(self, next_time: float, limit: float) -> None:
        """Account one horizon stall (the run loop's cold exit): a
        notable event (:meth:`~repro.observability.Telemetry.note`'s two
        rings and ordinal rule), filed as its facts."""
        self.stalls += 1
        telemetry = self.telemetry
        flight = telemetry.flight
        if telemetry.enabled:
            self._stall_counter.inc(telemetry)
            seq = next(telemetry.seq)
            # Link the stall to the chain of the event it is parked behind.
            head = self.queue.peek()
            cause = None if head is None else head.cause
        elif flight.enabled:
            seq, cause = 0, None    # the black box alone draws no ordinal
        else:
            return      # dark: the stall is counted, nothing records it
        record = (seq, _STALL, self.now, self.subsystem.name, limit,
                  next_time, cause, _wall())
        if seq:
            ring = telemetry.trace_buffer
            ring.items.append(record)
            ring.appended += 1
        if flight.enabled:
            flight.append(record)

    def run(self, until: float = float("inf"), *,
            horizon=float("inf"),
            max_events: Optional[int] = None) -> int:
        """Dispatch events while they fall at or before ``min(until, horizon)``.

        ``until`` is the caller's end-of-simulation bound; ``horizon`` is a
        safety bound imposed by conservative channels (paper section
        2.2.2.1) — either a number or a zero-argument callable re-evaluated
        before every dispatch, because sending on a channel can *shrink*
        the safe horizon mid-run (the echo bound).  Stopping at the horizon
        while work remains counts as a stall: the queue is non-empty and
        its head lies past the horizon but within ``until``.  ``max_events``
        caps the dispatches of this call (``<= 0`` dispatches nothing); the
        bound is checked ahead of the cap, so a capped run parked at its
        horizon still counts the stall, and an empty queue never does.
        Returns the number of events dispatched.

        This is the only dispatch loop — :meth:`step`, both event-queue
        backends and every argument shape run it.  The queue answers
        "next ready event" through ``pop_ready(bound)``; nothing here
        knows what data structure is behind that.
        """
        if callable(horizon):
            horizon_fn = horizon
            limit = bound = until       # both re-read before every dispatch
        else:
            horizon_fn = None
            limit = horizon
            bound = until if until < horizon else horizon
        # -1 is a cap no dispatch count reaches; ``!=`` against a small
        # int is the cheapest per-event test CPython offers.
        cap = -1 if max_events is None else max(max_events, 0)
        count = 0
        # Hot loop: every loop-invariant attribute access is hoisted.
        # ``hooks`` is the live list, so a hook added mid-run takes part.
        queue = self.queue
        pop_ready = queue.pop_ready
        handlers = self._handlers
        hooks = self.post_step_hooks
        telemetry = self.telemetry
        traced = telemetry.enabled
        name = self.subsystem.name
        cell = telemetry.cause_cell
        ring = telemetry.trace_buffer
        file = ring.items.append
        # The flight recorder (always-on black box) samples every
        # STRIDE-th dispatch: the loop only ticks a *local* counter and
        # masks it — written back once, in the finally, so a
        # CausalityError still leaves the count consistent.  A lit run's
        # ``scheduler.dispatched`` counter is settled there too, through
        # the held counter: once per run call, not per event.
        flight = telemetry.flight
        flight_on = flight.enabled
        fseq = flight.dispatch_seq
        try:
            while True:
                if horizon_fn is not None:
                    limit = horizon_fn()
                    bound = until if until < limit else limit
                # The cap is tested before the pop (a popped event must be
                # dispatched), the stall after it: whichever of bound, cap
                # or empty queue stopped the run, the head decides alone
                # whether this stop was a stall.
                event = pop_ready(bound) if count != cap else None
                if event is None:
                    if queue:
                        next_time = queue.next_time()
                        if bound < next_time <= until and limit < until:
                            self._record_stall(next_time, limit)
                    break
                time = event.time
                now = self.now
                if time < now:
                    raise CausalityError(
                        f"{name}: event at {time:g} popped "
                        f"after subsystem time reached {now:g}")
                self.now = time
                if not traced:
                    handlers[event.code](event)
                    self.dispatched += 1
                else:
                    if time != now:     # a new instant starts here
                        self.before = self.reached
                        if time > self.reached:
                            self.reached = time
                    cause = event.cause
                    if cause is None:
                        handlers[event.code](event)
                    else:
                        before = self.before
                        # Sends triggered by this dispatch mint child spans
                        # of its cause; cleared even on a straggler abort.
                        cell.value = cause
                        try:
                            handlers[event.code](event)
                        finally:
                            cell.value = None
                        # Filed as its facts, after the dispatch's own
                        # records (no frame, nothing built).
                        if telemetry.enabled:
                            file((next(telemetry.seq), _DISPATCH, time, name,
                                  event.kind, cause, before, _wall()))
                            ring.appended += 1
                    self.dispatched += 1
                count += 1
                if hooks:
                    for hook in hooks:
                        hook(event)
                if flight_on:
                    fseq += 1
                    if not (fseq & _FLIGHT_MASK):
                        flight.note(_DISPATCH, name, time=time, seq=fseq)
        finally:
            if flight_on:
                flight.dispatch_seq = fseq
            if traced and count:
                self._dispatched_counter.inc(telemetry, count)
        return count

    # ------------------------------------------------------------------
    def _dispatch_signal(self, event: Event) -> None:
        port: "Port" = event.target
        owner = port.owner
        if owner is None:
            raise SimulationError(
                f"signal delivered to orphan port {port.name!r}")
        owner.deliver(event)

    def _dispatch_wake(self, event: Event) -> None:
        component: "Component" = event.target
        component.deliver(event)

    def _dispatch_control(self, event: Event) -> None:
        event.target(event)
