"""HTTP exposition of live telemetry: JSON plus Prometheus text format.

A stdlib-only HTTP endpoint over the status snapshots a running
:class:`~repro.distributed.multiprocess.MultiprocessCoSimulation`
publishes (``run(..., status_path=...)``), including its counters,
time-series and link-health sections — the fold of every worker's
telemetry so far, as the final report folds it.  Decoupled by design —
the server reads the snapshot *file*, so it can start before the run,
survive it, and watch any number of sequential runs publishing to the
same path.

Routes::

    /            tiny index
    /status.json the full status snapshot as published
    /metrics     Prometheus text exposition (run, node, subsystem,
                 streamed counters/gauges, link-health rows)
    /series.json just the streamed time-series section
    /health.json just the streamed link-health section

Run it next to a live simulation::

    python -m repro.observability.serve status.json --port 8000
"""

from __future__ import annotations

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, List, Optional

_LABEL_ESCAPES = str.maketrans({
    "\\": "\\\\", '"': '\\"', "\n": "\\n"})


def _label(value) -> str:
    return f'"{str(value).translate(_LABEL_ESCAPES)}"'


def _name(metric: str) -> str:
    """Sanitise a metric name into the Prometheus grammar."""
    out = [c if (c.isalnum() or c in "_:") else "_" for c in metric]
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out) or "_"


def _num(value) -> Optional[float]:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)) and value == value \
            and value not in (float("inf"), float("-inf")):
        return float(value)
    return None


class _Lines:
    """Accumulates exposition lines, emitting TYPE headers lazily."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed = set()

    def add(self, metric: str, value, *, kind: str = "gauge",
            help_text: str = "", **labels) -> None:
        number = _num(value)
        if number is None:
            return
        if metric not in self._typed:
            self._typed.add(metric)
            if help_text:
                self.lines.append(f"# HELP {metric} {help_text}")
            self.lines.append(f"# TYPE {metric} {kind}")
        label_text = ""
        if labels:
            pairs = ",".join(f"{key}={_label(val)}"
                             for key, val in sorted(labels.items()))
            label_text = "{" + pairs + "}"
        if number == int(number) and abs(number) < 1e15:
            rendered = str(int(number))
        else:
            rendered = repr(number)
        self.lines.append(f"{metric}{label_text} {rendered}")


def prometheus_text(snapshot: Optional[dict]) -> str:
    """Render one status snapshot as Prometheus text exposition."""
    out = _Lines()
    snapshot = snapshot or {}
    phase = snapshot.get("phase", "unknown")
    out.add("pia_phase", 1, help_text="Run phase as a one-hot label.",
            phase=phase)
    out.add("pia_global_time", snapshot.get("global_time"),
            help_text="Minimum subsystem virtual time across nodes.")
    out.add("pia_until", snapshot.get("until"),
            help_text="Virtual end bound of the current run.")
    nodes = snapshot.get("nodes", {})
    for name in sorted(nodes):
        node = nodes[name] or {}
        out.add("pia_node_idle", node.get("idle"), node=name)
        out.add("pia_node_rounds", node.get("rounds"), kind="counter",
                node=name)
        out.add("pia_node_pending", node.get("pending"), node=name)
        out.add("pia_node_wire_out_total", node.get("wire_out"),
                kind="counter", node=name)
        out.add("pia_node_wire_in_total", node.get("wire_in"),
                kind="counter", node=name)
        out.add("pia_node_heartbeat_age_seconds",
                node.get("heartbeat_age"), node=name)
        for row in node.get("subsystems", []) or []:
            subsystem = row.get("name", "?")
            out.add("pia_subsystem_time", row.get("time"),
                    node=name, subsystem=subsystem)
            out.add("pia_subsystem_dispatched_total", row.get("dispatched"),
                    kind="counter", node=name, subsystem=subsystem)
            out.add("pia_subsystem_stalls_total", row.get("stalls"),
                    kind="counter", node=name, subsystem=subsystem)
            out.add("pia_subsystem_queue_depth", row.get("queue_depth"),
                    node=name, subsystem=subsystem)
    telemetry = snapshot.get("telemetry", {}) or {}
    for name, value in sorted((telemetry.get("counters") or {}).items()):
        out.add("pia_counter_total", value, kind="counter",
                help_text="Streamed simulation counters, folded across "
                          "workers.", name=_name(name))
    for name, value in sorted((telemetry.get("gauges") or {}).items()):
        out.add("pia_gauge", value,
                help_text="Streamed simulation gauges (max across "
                          "workers).", name=_name(name))
    for row in snapshot.get("health", []) or []:
        labels = {"src": row.get("src", "?"), "dst": row.get("dst", "?")}
        out.add("pia_link_messages_total", row.get("messages"),
                kind="counter", **labels)
        out.add("pia_link_bytes_total", row.get("bytes"), kind="counter",
                **labels)
        out.add("pia_link_ewma_delay_seconds", row.get("ewma_delay"),
                **labels)
        out.add("pia_link_rate", row.get("rate"), **labels)
        out.add("pia_link_queue_depth", row.get("queue_depth"), **labels)
        out.add("pia_link_stall_fraction", row.get("stall_fraction"),
                **labels)
        out.add("pia_link_health_score", row.get("score"),
                help_text="Advisory per-link health in [0, 1].", **labels)
    for name, series in sorted((snapshot.get("series") or {}).items()):
        points = (series or {}).get("points") or []
        if points:
            out.add("pia_series_last", points[-1][1],
                    help_text="Last streamed time-series point per "
                              "series.", name=_name(name))
    return "\n".join(out.lines) + "\n"


class TelemetryServer(ThreadingHTTPServer):
    """An HTTP server bound to a zero-argument snapshot source."""

    daemon_threads = True

    def __init__(self, address, source: Callable[[], Optional[dict]]):
        super().__init__(address, _Handler)
        self.source = source


class _Handler(BaseHTTPRequestHandler):
    server: TelemetryServer

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _json(self, status: int, document) -> None:
        self._reply(status, json.dumps(document, indent=2, sort_keys=True)
                    + "\n", "application/json")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        snapshot = self.server.source()
        if path == "/":
            self._reply(
                200,
                "pia telemetry endpoint\n"
                "  /status.json  full status snapshot\n"
                "  /metrics      Prometheus text format\n"
                "  /series.json  streamed time-series\n"
                "  /health.json  streamed link health\n",
                "text/plain; charset=utf-8")
            return
        if path == "/metrics":
            self._reply(200, prometheus_text(snapshot),
                        "text/plain; version=0.0.4; charset=utf-8")
            return
        if snapshot is None:
            self._json(503, {"error": "no status snapshot published yet"})
            return
        if path in ("/status.json", "/status"):
            self._json(200, snapshot)
        elif path in ("/series.json", "/series"):
            self._json(200, {"series": snapshot.get("series", {})})
        elif path in ("/health.json", "/health"):
            self._json(200, {"health": snapshot.get("health", [])})
        else:
            self._json(404, {"error": f"unknown path {path!r}"})


def make_server(source: Callable[[], Optional[dict]], *,
                host: str = "127.0.0.1", port: int = 0) -> TelemetryServer:
    """Bind a :class:`TelemetryServer` over ``source`` (port 0 = ephemeral)."""
    return TelemetryServer((host, port), source)


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


def serve_status_file(path: str, *, host: str = "127.0.0.1",
                      port: int = 0) -> TelemetryServer:
    """Bind a server over the status snapshot file at ``path``."""
    return make_server(lambda: read_snapshot(path), host=host, port=port)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.serve",
        description="HTTP endpoint (JSON + Prometheus text) over a "
                    "run's live status snapshots (see "
                    "MultiprocessCoSimulation.run's status_path).")
    parser.add_argument("path", help="status JSON file the run publishes")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8000,
                        help="bind port (default 8000; 0 = ephemeral)")
    args = parser.parse_args(argv)
    server = serve_status_file(args.path, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving telemetry for {args.path} on http://{host}:{port}/",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:   # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":    # pragma: no cover - exercised via CLI
    sys.exit(main())
