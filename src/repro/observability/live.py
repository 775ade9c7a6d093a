"""Live run introspection: the status document and a console view over it.

The multiprocess executor's supervision loop can publish a JSON
:func:`status_snapshot` to a file (``run(..., status_path="status.json")``),
atomically replaced every ``status_interval`` seconds.  This module
builds that document and reads it back: it tails the file and renders
a periodic per-node / per-subsystem table —
local virtual time, next event, queue depth, safe-time horizon, stall
state, which peer is pinning the horizon, and each worker's heartbeat
age — until the snapshot's phase turns ``done``.

Run it next to a live simulation::

    python -m repro.observability.live status.json
    python -m repro.observability.live --once status.json
"""

from __future__ import annotations

import json
import os
import sys
import time as _time
from typing import Dict, List, Optional


def _json_safe(value):
    """``inf`` has no JSON encoding; status snapshots use ``null``."""
    return None if value == float("inf") else value


def status_snapshot(statuses: Dict[str, dict], *,
                    until: float = float("inf"),
                    phase: str = "running", report=None) -> dict:
    """Fold per-worker ``status?`` replies into one JSON-safe snapshot.

    Per node the idle flag, control-loop round count, parked/pending
    messages, wire counters and heartbeat age (seconds since the worker
    stamped its reply), and per subsystem the local virtual time, next
    event, event count, queue depth, safe-time horizon, stall state and
    the peer currently pinning the horizon.  With ``report`` — the
    :func:`~repro.observability.report.fold` of everyone's telemetry so
    far — the ``telemetry`` (counters, gauges), ``series`` and
    ``health`` sections :mod:`repro.observability.serve` exposes.
    """
    wall = _time.time()
    nodes = {}
    times = []
    for name in sorted(statuses):
        st = statuses[name]
        rows = []
        for row in st["subsystems"]:
            times.append(row["time"])
            rows.append(dict(row,
                             next_event=_json_safe(row["next_event"]),
                             horizon=_json_safe(row["horizon"])))
        nodes[name] = {
            "idle": st["idle"],
            "rounds": st["rounds"],
            "pending": st["pending"],
            "wire_out": st["wire_out"],
            "wire_in": st["wire_in"],
            "epoch": st.get("epoch", 0),
            "heartbeat_age": max(0.0, wall - st.get("wall", wall)),
            "subsystems": rows,
        }
    snapshot = {"phase": phase, "wall": wall, "until": _json_safe(until),
                "global_time": min(times, default=0.0), "nodes": nodes}
    if report is not None:
        snapshot["telemetry"] = {
            "counters": dict(report.counters),
            "gauges": {name: _json_safe(value)
                       for name, value in report.gauges.items()},
        }
        snapshot["series"] = {
            name: {"points": [[t, _json_safe(v)] for t, v in row["points"]]}
            for name, row in report.timeseries.items()}
        snapshot["health"] = report.link_health
    return snapshot


def _fmt(value, *, unit: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:g}{unit}"
    return f"{value}{unit}"


def render_status(snapshot: dict) -> str:
    """Render one status snapshot as a console block."""
    out: List[str] = []
    phase = snapshot.get("phase", "?")
    header = (f"phase={phase}  global_time="
              f"{_fmt(snapshot.get('global_time'))}  until="
              f"{_fmt(snapshot.get('until'))}")
    out.append(header)
    nodes = snapshot.get("nodes", {})
    for name in sorted(nodes):
        node = nodes[name]
        out.append("")
        out.append(
            f"node {name}: "
            f"{'idle' if node.get('idle') else 'busy'}  "
            f"rounds={_fmt(node.get('rounds'))}  "
            f"pending={_fmt(node.get('pending'))}  "
            f"wire={_fmt(node.get('wire_out'))}/{_fmt(node.get('wire_in'))}  "
            f"heartbeat={_fmt(node.get('heartbeat_age'), unit='s')}")
        rows = node.get("subsystems", [])
        if not rows:
            continue
        headers = ["subsystem", "time", "next", "events", "queue",
                   "horizon", "stalled", "waiting on"]
        table = [[row.get("name", "?"), _fmt(row.get("time")),
                  _fmt(row.get("next_event")), _fmt(row.get("dispatched")),
                  _fmt(row.get("queue_depth")), _fmt(row.get("horizon")),
                  _fmt(row.get("stalled")), _fmt(row.get("waiting_on"))]
                 for row in rows]
        widths = [len(h) for h in headers]
        for row in table:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        line = lambda cells: "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
        out.append("  " + line(headers))
        out.append("  " + "  ".join("-" * w for w in widths))
        out.extend("  " + line(row) for row in table)
    return "\n".join(out)


def read_snapshot(path: str) -> Optional[dict]:
    """Load the snapshot at ``path``; ``None`` when absent/incomplete.

    The writer replaces the file atomically, so a partial read can only
    mean the run has not published yet — both cases are "no data yet".
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def follow(path: str, *, interval: float = 1.0,
           iterations: Optional[int] = None, out=None) -> Optional[dict]:
    """Tail ``path``, printing a rendered view each ``interval`` seconds
    until the snapshot's phase is ``done`` (or ``iterations`` views have
    been printed).  Returns the last snapshot seen."""
    out = out if out is not None else sys.stdout
    printed = 0
    snapshot = None
    while iterations is None or printed < iterations:
        latest = read_snapshot(path)
        if latest is not None:
            snapshot = latest
            print(render_status(snapshot), file=out)
            print("", file=out)
            printed += 1
            if snapshot.get("phase") == "done":
                break
        if iterations is not None and printed >= iterations:
            break
        _time.sleep(interval)
    return snapshot


def follow_ndjson(path: str, *, interval: float = 1.0,
                  iterations: Optional[int] = None,
                  out=None) -> Optional[dict]:
    """The non-TTY tail: emit each *new* snapshot as one JSON line.

    Meant for piping into ``jq``/log shippers: no tables, no redraws,
    one line per distinct snapshot (deduplicated on the writer's
    ``wall`` stamp), until the phase turns ``done`` (or ``iterations``
    lines have been emitted).  Returns the last snapshot seen.
    """
    out = out if out is not None else sys.stdout
    emitted = 0
    snapshot = None
    last_stamp = None
    while iterations is None or emitted < iterations:
        latest = read_snapshot(path)
        if latest is not None:
            stamp = (latest.get("wall"), latest.get("phase"))
            if stamp != last_stamp:
                last_stamp = stamp
                snapshot = latest
                print(json.dumps(latest, sort_keys=True,
                                 separators=(",", ":")), file=out, flush=True)
                emitted += 1
                if latest.get("phase") == "done":
                    break
        if iterations is not None and emitted >= iterations:
            break
        _time.sleep(interval)
    return snapshot


def main(argv: Optional[List[str]] = None) -> int:
    import argparse     # the CLI's alone: the executors import this module
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.live",
        description="Console view over a multiprocess run's status "
                    "snapshots (see MultiprocessCoSimulation.run's "
                    "status_path).")
    parser.add_argument("path", help="status JSON file the run publishes")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between refreshes (default 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="print one view and exit")
    parser.add_argument("--follow", action="store_true",
                        help="non-TTY mode: tail snapshots as "
                             "line-delimited JSON (one line per new "
                             "snapshot) instead of rendered tables")
    args = parser.parse_args(argv)
    try:
        if args.once:
            snapshot = read_snapshot(args.path)
            if snapshot is None:
                print(f"no status snapshot at {args.path}",
                      file=sys.stderr)
                return 1
            print(render_status(snapshot))
            return 0
        if args.follow:
            snapshot = follow_ndjson(args.path, interval=args.interval)
        else:
            snapshot = follow(args.path, interval=args.interval)
    except BrokenPipeError:
        # Downstream (`| head`) closed the pipe; that is a normal way
        # to stop tailing, not an error.  Detach stdout so the
        # interpreter's shutdown flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    return 0 if snapshot is not None else 1


if __name__ == "__main__":    # pragma: no cover - exercised via CLI
    sys.exit(main())
