"""Timeline export and trace profiling.

Renders a run's structured trace as a Chrome-trace-event JSON document —
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` —
with nodes mapped to process rows, subsystems and links to thread rows,
and the causal spans of :mod:`repro.observability.spans` drawn as flow
arrows from each ``MSG_SEND`` to its ``MSG_RECV`` deliveries.  Two views
of the same records exist: ``virtual`` places events at the virtual time
they describe (the paper's currency), ``wall`` at the wall clock they
were recorded (which is where the parallel executors' overlap becomes
visible).

The same linked trace also drives :func:`stall_attribution`: a profiler
pass charging every virtual-time interval a subsystem spent parked before
a remote-caused event to the peer node whose message (and the grant that
released it) ended the wait.  The pass aggregates per virtual instant,
so it depends only on *which* remote causes reached each subsystem at
each virtual time — a quantity the conservative protocol makes
deterministic — and the table is bit-identical across the cooperative,
threaded and multiprocess executors at the same seed, a direct
Fig. 3/Fig. 4 instrument.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .spans import span_name
from .trace import TraceKind, record_dicts

#: Virtual/wall seconds are exported as Chrome-trace microseconds.
_US = 1_000_000.0


def trace_records(source) -> List[dict]:
    """Normalise ``source`` into a list of trace-record dicts.

    Accepts a :class:`~.report.RunReport` (its ``trace_records``), a
    :class:`~.telemetry.Telemetry`, a :class:`~.trace.TraceBuffer` (a
    :class:`~.flight.FlightRecorder` is one), or an iterable of
    :class:`~.trace.TraceRecord`/dicts — e.g. the parsed lines of a
    flight dump after its header.
    """
    report_records = getattr(source, "trace_records", None)
    if report_records is not None:
        return list(report_records)
    return record_dicts(getattr(source, "trace_buffer", source))


def subject_nodes(source) -> Dict[str, str]:
    """Best-effort subsystem→node mapping from a report-like source."""
    rows = getattr(source, "subsystems", None)
    if not rows:
        return {}
    return {row["name"]: row["node"] for row in rows
            if isinstance(row, dict) and row.get("node") not in (None, "-")}


# ----------------------------------------------------------------------
# stall attribution
# ----------------------------------------------------------------------
def stall_attribution(records, *, nodes: Optional[Dict[str, str]] = None
                      ) -> List[dict]:
    """Charge each subsystem's idle virtual-time gaps to peer nodes.

    Reads the ``DISPATCH`` records, which a run files only for caused
    dispatches; whenever a dispatched event *delivers* a message from
    another node, the virtual-time gap since the subsystem's previous
    dispatch instant (the record's ``before``, which a rollback never
    lowers) is time it spent parked at a channel horizon waiting for that
    peer's traffic (the message itself, or the grant that made it safe to
    pass).  Gaps ending in purely local events (``WaitUntil`` delays,
    local wiring) are never charged — including events that merely *inherited* a
    remote cause: a dispatch whose cause span was stamped at an earlier
    virtual time is follow-on work the subsystem scheduled for itself,
    not a wait on the network, so the charge requires the cause's
    ``MSG_SEND`` stamp to equal the dispatch instant.

    ``nodes`` maps subsystem name to its node so co-located traffic can
    be recognised; a record whose cause originates from the subsystem's
    own node is not charged.

    All dispatches sharing one virtual instant and one ``before`` are
    treated as a single group (instants a rollback revisits form new
    ones, with no gap): the gap is charged once to every peer node whose
    delivery ended it — a merge point needs *all* of its inputs before
    the instant is safe, so simultaneous arrivals share the blame.  Together with the stamp rule this makes the table a pure
    function of *which* remote messages reach each subsystem at each
    virtual time — a quantity the conservative protocol fixes — rather
    than of the intra-instant delivery order, which is executor-pacing-
    dependent when two peers' messages carry the same stamp.

    Returns one row per (subsystem, peer node), sorted, with the
    subsystem's worst peers (ties included) flagged ``critical``::

        {"subsystem", "node", "peer_node", "waits", "waited", "critical"}
    """
    nodes = nodes or {}
    dicts = record_dicts(records)
    #: Virtual stamp of each span's message (first send wins; retried and
    #: duplicated copies share both the span and the stamp).  Keyed by
    #: ``tuple``: a JSON round-trip turns a span into a list.
    stamps: Dict[tuple, float] = {}
    for rec in dicts:
        if rec.get("kind") == TraceKind.MSG_SEND and "span" in rec:
            stamps.setdefault(tuple(rec["span"]), rec.get("time", 0.0))
    #: (subject, instant, before) -> remote origins
    groups: Dict[tuple, set] = {}
    rows: Dict[tuple, dict] = {}
    for rec in dicts:
        span = rec.get("cause")
        if rec.get("kind") != TraceKind.DISPATCH or span is None:
            continue
        subject = rec.get("subject", "")
        time = rec.get("time", 0.0)
        origins = groups.setdefault((subject, time, rec["before"]), set())
        stamp = stamps.get(tuple(span))
        if stamp is not None and stamp != time:
            continue        # inherited cause: planned local follow-on work
        origin = span[0]
        own = nodes.get(subject)
        if own is not None and origin == own:
            continue
        origins.add(origin)
    for (subject, instant, before), origins in groups.items():
        gap = instant - before
        if gap <= 0.0:
            continue
        for origin in origins:
            key = (subject, origin)
            row = rows.get(key)
            if row is None:
                own = nodes.get(subject)
                rows[key] = row = {"subsystem": subject,
                                   "node": own if own is not None else "-",
                                   "peer_node": origin,
                                   "waits": 0, "waited": 0.0}
            row["waits"] += 1
            row["waited"] += gap
    ordered = [rows[key] for key in sorted(rows)]
    worst: Dict[str, float] = {}
    for row in ordered:
        worst[row["subsystem"]] = max(worst.get(row["subsystem"], 0.0),
                                      row["waited"])
    for row in ordered:
        row["critical"] = row["waited"] == worst[row["subsystem"]]
    return ordered


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def _link_parts(subject: str):
    src, sep, dst = subject.partition("->")
    return (src, dst) if sep else (None, None)


class _Rows:
    """Stable pid/tid assignment: one process row per node, one thread
    row per subsystem or link."""

    def __init__(self) -> None:
        self._pids: Dict[str, int] = {}
        self._tids: Dict[tuple, int] = {}
        self.events: List[dict] = []

    def pid(self, node: Optional[str]) -> int:
        name = node if node else "sim"
        pid = self._pids.get(name)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[name] = pid
            self.events.append({"ph": "M", "name": "process_name",
                                "pid": pid, "tid": 0,
                                "args": {"name": name}})
        return pid

    def tid(self, pid: int, label: str) -> int:
        key = (pid, label)
        tid = self._tids.get(key)
        if tid is None:
            tid = sum(1 for (p, __) in self._tids if p == pid) + 1
            self._tids[key] = tid
            self.events.append({"ph": "M", "name": "thread_name",
                                "pid": pid, "tid": tid,
                                "args": {"name": label}})
        return tid


def chrome_trace(source, *, view: str = "virtual",
                 nodes: Optional[Dict[str, str]] = None,
                 series: Optional[dict] = None) -> dict:
    """Render ``source``'s trace as a Chrome-trace-event document.

    ``view`` selects the timebase: ``"virtual"`` (event virtual times;
    stalls get their true virtual duration) or ``"wall"`` (record wall
    clocks, zero-based; shows real executor overlap).  ``nodes`` maps
    subsystem names to node names for process-row placement (derived
    automatically when ``source`` is a :class:`~.report.RunReport`).

    ``series`` adds counter tracks: a map of series name to
    ``{"points": [[t, value], ...]}`` (the shape of
    :attr:`~.report.RunReport.timeseries`, which is picked up
    automatically when ``source`` carries one).  Points are virtual-time
    stamped, so counter tracks render in the ``virtual`` view only; a
    ``node/metric`` key places the track on that node's process row.
    """
    if view not in ("virtual", "wall"):
        raise ValueError(f"view must be 'virtual' or 'wall': {view!r}")
    records = trace_records(source)
    if series is None:
        series = getattr(source, "timeseries", None) or {}
    nodes = dict(nodes or {})
    nodes.update(subject_nodes(source))
    rows = _Rows()
    events = rows.events
    wall0 = min((r.get("wall", 0.0) for r in records
                 if r.get("wall", 0.0) > 0.0), default=0.0)

    def ts_of(rec: dict) -> float:
        if view == "wall":
            return max(0.0, rec.get("wall", 0.0) - wall0) * _US
        return rec.get("time", 0.0) * _US

    for rec in records:
        kind = rec.get("kind")
        subject = rec.get("subject", "")
        ts = ts_of(rec)
        args = {k: v for k, v in rec.items()
                if k not in ("kind", "subject", "wall") and v is not None
                and v != float("inf")}
        if kind in (TraceKind.MSG_SEND, TraceKind.MSG_RECV):
            src, dst = _link_parts(subject)
            if src is None:
                continue
            node = src if kind == TraceKind.MSG_SEND else dst
            # A link subject names nodes directly; fall through the map
            # in case subjects are subsystem-level in some transport.
            pid = rows.pid(nodes.get(node, node))
            tid = rows.tid(pid, f"net {subject}")
            verb = "send" if kind == TraceKind.MSG_SEND else "recv"
            events.append({"ph": "X", "cat": "msg",
                           "name": f"{verb} {rec.get('message_kind', '?')}",
                           "pid": pid, "tid": tid, "ts": ts, "dur": 1,
                           "args": args})
            span = rec.get("span")
            if span is not None:
                flow = {"ph": "s" if kind == TraceKind.MSG_SEND else "f",
                        "cat": "causal", "name": "msg",
                        "id": span_name(span),
                        "pid": pid, "tid": tid, "ts": ts}
                if flow["ph"] == "f":
                    flow["bp"] = "e"
                events.append(flow)
            continue
        src, dst = _link_parts(subject)
        if src is not None:
            pid = rows.pid(nodes.get(src, src))
            tid = rows.tid(pid, f"net {subject}")
        else:
            pid = rows.pid(nodes.get(subject))
            tid = rows.tid(pid, subject or "run")
        if kind == TraceKind.STALL and view == "virtual":
            horizon = rec.get("next_event", rec.get("time", 0.0))
            duration = max(0.0, horizon - rec.get("time", 0.0)) * _US
            events.append({"ph": "X", "cat": "stall", "name": "stall",
                           "pid": pid, "tid": tid, "ts": ts,
                           "dur": duration, "args": args})
        else:
            events.append({"ph": "i", "cat": kind or "trace",
                           "name": kind or "trace", "s": "t",
                           "pid": pid, "tid": tid, "ts": ts,
                           "args": args})
    if view == "virtual" and series:
        for name in sorted(series):
            node, sep, metric = name.partition("/")
            pid = rows.pid(node if sep else None)
            label = metric if sep else name
            for point in series[name].get("points", []):
                t, value = point[0], point[1]
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool):
                    continue
                events.append({"ph": "C", "cat": "series", "name": label,
                               "pid": pid, "tid": 0, "ts": t * _US,
                               "args": {label: value}})
    return {"displayTimeUnit": "ms",
            "otherData": {"view": view},
            "traceEvents": events}


def write_chrome_trace(path: str, source, *, view: str = "virtual",
                       nodes: Optional[Dict[str, str]] = None,
                       series: Optional[dict] = None) -> dict:
    """Export ``source`` to ``path`` as Chrome-trace JSON; returns the
    document."""
    document = chrome_trace(source, view=view, nodes=nodes, series=series)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return document


#: Event types of the trace-event format this exporter emits.
_KNOWN_PHASES = frozenset("XBEibnesftMC")


def validate_chrome_trace(data) -> List[str]:
    """Check ``data`` against the Chrome trace-event shape.

    Returns a list of problems (empty when valid): structural issues,
    malformed events, and unmatched flow terminations (an ``f`` whose
    ``id`` has no ``s`` — an orphaned causal link).
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"top level must be an object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    flow_starts = set()
    flow_ends = []
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in _KNOWN_PHASES:
            problems.append(f"{where}: bad ph {phase!r}")
            continue
        if phase == "M":
            if "name" not in event:
                problems.append(f"{where}: metadata event without name")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key}")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: missing numeric ts")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        if phase == "C":
            # Counter tracks: a named event whose args are the numeric
            # sample(s) plotted at ts.
            if not event.get("name"):
                problems.append(f"{where}: counter event without name")
            samples = event.get("args")
            if not isinstance(samples, dict) or not samples:
                problems.append(
                    f"{where}: counter event needs non-empty args")
            elif any(isinstance(v, bool) or not isinstance(v, (int, float))
                     for v in samples.values()):
                problems.append(
                    f"{where}: counter args must be numeric")
        if phase in "sft":
            if "id" not in event:
                problems.append(f"{where}: flow event without id")
            elif phase == "s":
                flow_starts.add(event["id"])
            elif phase == "f":
                flow_ends.append((where, event["id"]))
    for where, flow_id in flow_ends:
        if flow_id not in flow_starts:
            problems.append(
                f"{where}: orphaned causal link — flow finish {flow_id!r} "
                "has no start")
    return problems
