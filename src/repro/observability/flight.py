r"""The flight recorder: an always-on bounded black box.

Full tracing answers "what happened" only when it was switched on before
the interesting run; production post-mortems rarely get that luxury.  The
flight recorder is the other regime: a small ring of *recent* notable
events — stride-sampled dispatches, horizon stalls, wire frames, control
and migration decisions — cheap enough to leave on for every run, and
dumped automatically (as JSONL, one file per process) when something goes
wrong: a worker crash, a failover, a live migration, or a run that fails
to quiesce before its timeout.  The black box *is* a trace: its ring is
the trace buffer's and its records are :class:`~.trace.TraceRecord`\ s, so
a dump's lines load straight into :func:`~.export.trace_records`,
:func:`~.export.chrome_trace` and :func:`~.spans.causal_chains`.

Overhead discipline: the run loop (see
:meth:`repro.core.scheduler.Scheduler.run`) does not call into this
module per event.  It hoists ``flight.enabled`` once, ticks a *local*
counter, and only on every :data:`STRIDE`-th event pays for a
:meth:`FlightRecorder.note` —
a few integer ops per dispatch, amortising the append to noise.  The
shared :data:`~repro.observability.telemetry.NULL_TELEMETRY` carries a
disabled recorder, so code never attached to a real telemetry pays one
attribute read, exactly like every other instrumentation site.

Dump location: ``$PIA_FLIGHT_DIR`` when set, else the system temp dir;
one ``pia-flight-<tag>-<pid>.jsonl`` per dumping process.
"""

from __future__ import annotations

import json
import os
import tempfile
import time as _time
from typing import Optional

from .trace import TraceBuffer, TraceRecord, record_dicts

#: Environment override for where automatic dumps land.
ENV_DIR = "PIA_FLIGHT_DIR"

#: Ring capacity: enough to cover the seconds before a fault without
#: holding a run's whole history.
DEFAULT_CAPACITY = 512

#: Dispatch sampling stride (power of two): the run loop records every
#: STRIDE-th dispatched event.  ``seq & STRIDE_MASK == 0`` is the test
#: it inlines.
STRIDE = 1024
STRIDE_MASK = STRIDE - 1


class FlightRecorder(TraceBuffer):
    """A small trace buffer of recent notable events, cheap enough to
    leave on — same ring, same :class:`~.trace.TraceRecord` shape, plus
    an on/off switch of its own and the dump."""

    __slots__ = ("enabled", "dispatch_seq")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 enabled: bool = True) -> None:
        super().__init__(capacity)
        self.enabled = enabled
        #: Dispatches ticked by the run loop (it owns this counter in a
        #: local and writes it back once per run call).
        self.dispatch_seq = 0

    # ------------------------------------------------------------------
    def note(self, kind: str, subject: str = "", *, time: float = 0.0,
             seq: int = 0, **details) -> None:
        """Record one event in this ring only (no-op while disabled):
        what the full trace does not carry — the stride-sampled dispatch
        (``seq`` is its ordinal), the moment before a dump.  Events for
        both rings go through :meth:`~.telemetry.Telemetry.note`."""
        if self.enabled:
            self.append(TraceRecord(seq, kind, time, subject, details,
                                    _time.time()))

    # ------------------------------------------------------------------
    def dumps(self, *, tag: str = "run", reason: str = "") -> str:
        """The black box as JSONL: a header line, then one record dict
        per line (:func:`~.trace.record_dicts` — what
        :func:`~.export.trace_records` and everything downstream of it
        read back)."""
        header = {"flight": tag, "reason": reason, "wall": _time.time(),
                  "pid": os.getpid(), "recorded": self.appended,
                  "capacity": self.capacity,
                  "dispatches": self.dispatch_seq}
        lines = [json.dumps(header, sort_keys=True, default=str)]
        lines.extend(json.dumps(record, sort_keys=True, default=str)
                     for record in record_dicts(self))
        return "\n".join(lines) + "\n"

    def dump(self, path: Optional[str] = None, *, tag: str = "run",
             reason: str = "") -> Optional[str]:
        """Best-effort dump to ``path`` (default :func:`flight_path`).

        Returns the path written, or ``None`` when disabled or the write
        fails — a post-mortem aid must never turn a crash into a second
        crash."""
        if not self.enabled:
            return None
        if path is None:
            path = flight_path(tag)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.dumps(tag=tag, reason=reason))
        except OSError:
            return None
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return (f"<FlightRecorder {state} {len(self)}/"
                f"{self.capacity} recorded={self.appended}>")


def flight_path(tag: str) -> str:
    """Where a dump for ``tag`` lands: ``$PIA_FLIGHT_DIR`` or temp dir."""
    base = os.environ.get(ENV_DIR) or tempfile.gettempdir()
    safe = "".join(c if (c.isalnum() or c in "-._") else "_"
                   for c in str(tag)) or "run"
    return os.path.join(base, f"pia-flight-{safe}-{os.getpid()}.jsonl")
