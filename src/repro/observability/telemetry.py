"""The telemetry facade instrumented code talks to.

One :class:`Telemetry` instance is shared by everything belonging to one
simulation (a :class:`~repro.core.simulator.Simulator` or a
:class:`~repro.distributed.executor.CoSimulation`): its scheduler(s),
checkpoint stores, channels, snapshot managers and transport all feed the
same registry and trace buffer, so a single
:class:`~repro.observability.report.RunReport` can describe the whole run.

Instrumentation sites follow one discipline::

    t = self.telemetry
    if t.enabled:
        t.count("scheduler.stalls")
        t.trace(TraceKind.STALL, time=..., subject=..., horizon=...)

The ``enabled`` check is the no-op fast path: objects never attached to a
real telemetry hold the shared :data:`NULL_TELEMETRY`, whose ``enabled``
is permanently ``False`` — one attribute read per hot-path visit.

A lit run is the everyday run, so the sites it visits per event and per
message (dispatch, stall, transport send/call/poll, link accounting) go
one step further and skip the conveniences: they file their record into
:attr:`Telemetry.trace_buffer` themselves, as a flat tuple of its facts
that is built into a :class:`~.trace.TraceRecord` only when read (see
:mod:`.trace`), read :attr:`Telemetry.cause_cell` as a plain attribute,
and hold bound :class:`~.metrics.Counter` handles (re-resolved when the
telemetry's registry is swapped) instead of looking a name up per
increment.  What a reader gets is the same either way.
"""

from __future__ import annotations

import itertools
import threading
import time as _time
from typing import Optional

from .flight import FlightRecorder
from .metrics import MetricsRegistry
from .spans import SpanMinter
from .trace import TraceBuffer, TraceRecord

_new_record = tuple.__new__
_wall = _time.time


class _CauseCell(threading.local):
    """Per-thread ``value``: the span being dispatched.  The
    class default makes a thread that never wrote one read ``None``."""

    value = None


class Telemetry:
    """A metrics registry plus a bounded trace buffer, with an on/off gate."""

    def __init__(self, *, enabled: bool = True,
                 trace_capacity: int = 4096) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.trace_buffer = TraceBuffer(trace_capacity)
        #: Deterministic per-origin span ordinals for causal tracing.
        self.spans = SpanMinter()
        #: Always-on black box (see :mod:`.flight`): stays enabled even
        #: when the metrics/trace gate is off, so post-mortems do not
        #: depend on full telemetry having been switched on.  Disable it
        #: explicitly (``telemetry.flight.enabled = False``) to shed its
        #: last few percent of dispatch cost.
        self.flight = FlightRecorder()
        #: Optional :class:`~.timeseries.TimeSeriesRecorder`, ticked by
        #: the executors at round boundaries when attached.
        self.series = None
        #: Optional :class:`~.health.LinkHealthMonitor`, fed by the
        #: transport send/poll boundary when attached.
        self.health = None
        #: The span of the caused event being dispatched (``.value``,
        #: ``None`` outside one) — what a send it makes is minted a child
        #: of — thread-local: under the threaded executor several node
        #: threads share one Telemetry, and each must see only its own
        #: dispatch's cause.
        self.cause_cell = _CauseCell()
        #: Record ordinals (``itertools.count``: one atomic C call, unique
        #: under the threaded executor).
        self.seq = itertools.count(1)

    # ------------------------------------------------------------------
    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        try:
            self.registry.counters[name].inc(n)
        except KeyError:
            self.registry.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.registry.gauge(name).set(value)

    def emit(self, kind: str, time: float, subject: str,
             details: dict) -> Optional[TraceRecord]:
        """Append one structured record around a ready ``details`` dict
        (no-op while disabled); returns it.  The positional form of
        :meth:`trace` for per-event sites — and the only form that can
        carry a detail named ``kind``, ``time`` or ``subject`` (emitted
        as ``detail.<key>`` by :meth:`TraceRecord.to_dict`).  Files the
        record itself: no frame."""
        if self.enabled:
            record = _new_record(TraceRecord, (next(self.seq), kind, time,
                                               subject, details, _wall()))
            ring = self.trace_buffer
            ring.items.append(record)
            ring.appended += 1
            return record
        return None

    def trace(self, kind: str, *, time: float = 0.0, subject: str = "",
              **details) -> None:
        """Append one structured record (no-op while disabled)."""
        self.emit(kind, time, subject, details)

    def note(self, kind: str, *, time: float = 0.0, subject: str = "",
             **details) -> None:
        """Record one *notable* event — a migration, a failover, an abort:
        one :class:`TraceRecord`, filed in the trace buffer when the gate
        is on and in the flight ring when the black box is on.  Only a
        record entering the trace buffer draws a ``seq`` (else 0): what
        the black box sees never shifts a lit report's ordinals."""
        flight = self.flight
        record = self.emit(kind, time, subject, details)
        if not flight.enabled:
            return
        flight.append(record if record is not None else
                      TraceRecord(0, kind, time, subject, details, _wall()))

    # ------------------------------------------------------------------
    def attach_series(self, recorder) -> "object":
        """Attach a :class:`~.timeseries.TimeSeriesRecorder`; returns it."""
        self.series = recorder
        return recorder

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return (f"<Telemetry {state} counters={len(self.registry.counters)} "
                f"trace={len(self.trace_buffer)}>")


class _NullTelemetry(Telemetry):
    """The shared default sink: permanently disabled.

    Every instrumented object starts pointing here, so instrumentation
    costs one attribute read until a real :class:`Telemetry` is attached.
    Being shared, it must never be switched on.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False, trace_capacity=1)
        # Shared sink: its flight recorder must stay off too, so code
        # never attached to a real Telemetry pays one attribute read.
        self.flight.enabled = False


#: Default sink for objects not attached to any simulation's telemetry.
NULL_TELEMETRY = _NullTelemetry()
