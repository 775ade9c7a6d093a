#!/usr/bin/env python
"""CI smoke for the live telemetry endpoint (ISSUE 10).

Runs a real multiprocess simulation publishing status snapshots, serves
them over :mod:`repro.observability.serve`, and fetches every route
*while the run is still in flight*:

* ``/status.json`` must be valid JSON with nodes and a ``telemetry``
  section (counters folded across workers, as the report folds them);
* ``/metrics`` must be Prometheus text exposition carrying
  ``pia_global_time``, per-link health rows and counters;
* ``/series.json`` and ``/health.json`` must serve their sections.

After the run the final ``phase: "done"`` snapshot must be visible
through the same routes, and its counters must be the run report's.
Exits non-zero on any failure.

Usage::

    PYTHONPATH=src python benchmarks/http_smoke.py
"""

import json
import os
import sys
import tempfile
import threading
import time
import urllib.request

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))

from repro.bench.workloads import compute_star_multiprocess  # noqa: E402
from repro.observability import (                         # noqa: E402
    LinkHealthMonitor,
    Telemetry,
    TimeSeriesRecorder,
)
from repro.observability.serve import serve_status_file   # noqa: E402

#: The run must stay alive long enough for mid-flight fetches.
ROUNDS = int(os.environ.get("PIA_HTTP_SMOKE_ROUNDS", "300"))
WORDS = int(os.environ.get("PIA_HTTP_SMOKE_WORDS", "2000"))


def fetch(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:  # 4xx/5xx still carry a body
        return error.code, error.read().decode("utf-8")


def main():
    failures = []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        status_path = os.path.join(tmp, "status.json")
        server = serve_status_file(status_path, port=0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        threading.Thread(target=server.serve_forever, daemon=True).start()

        # Before any snapshot exists: /metrics must still answer 200
        # (empty exposition) and the JSON routes must say 503, not hang.
        status, __ = fetch(base, "/metrics")
        if status != 200:
            failures.append(f"pre-run /metrics returned {status}")
        status, __ = fetch(base, "/status.json")
        if status != 503:
            failures.append(f"pre-run /status.json returned {status}, "
                            "expected 503")

        # The workers mirror the plane configured on this Telemetry.
        telemetry = Telemetry()
        telemetry.attach_series(TimeSeriesRecorder(virtual_interval=5.0,
                                                   wall_interval=0.05))
        telemetry.health = LinkHealthMonitor()
        sim = compute_star_multiprocess(2, ROUNDS, words=WORDS,
                                        telemetry=telemetry)
        run_error = []

        def drive():
            try:
                with sim:
                    sim.run(until=float("inf"), timeout=120.0,
                            status_path=status_path, status_interval=0.05)
            except BaseException as exc:  # surfaced by the main thread
                run_error.append(exc)

        runner = threading.Thread(target=drive)
        runner.start()
        deadline = time.monotonic() + 60.0
        live_metrics = live_status = None
        while time.monotonic() < deadline and runner.is_alive():
            if not os.path.exists(status_path):
                time.sleep(0.02)
                continue
            __, metrics = fetch(base, "/metrics")
            __, body = fetch(base, "/status.json")
            document = json.loads(body)
            # Keep polling until a health row shows up on both routes,
            # not merely any counter: a snapshot can carry counters
            # before any link exists (a worker that has only *served* a
            # safe-time request has counted ``safetime.served`` and sent
            # nothing yet).
            if "pia_link_health_score" in metrics \
                    and "telemetry" in document and document.get("health") \
                    and document.get("phase") == "running":
                live_metrics, live_status = metrics, document
                break
            time.sleep(0.02)
        runner.join()
        if run_error:
            raise run_error[0]

        if live_metrics is None:
            failures.append(
                "never saw a mid-run snapshot with health rows — "
                "the run finished before the endpoint showed one (raise "
                "PIA_HTTP_SMOKE_ROUNDS) or the live fold is broken")
        else:
            for needle in ("pia_global_time", "pia_phase",
                           "pia_node_wire_out_total", "pia_counter_total",
                           "pia_link_health_score"):
                if needle not in live_metrics:
                    failures.append(
                        f"mid-run /metrics is missing {needle}")
            if not live_status.get("nodes"):
                failures.append("mid-run /status.json has no nodes")
            if not live_status.get("health"):
                failures.append("mid-run /status.json has no health rows")

        # Final state: the run's parting "done" snapshot through every
        # route.
        __, body = fetch(base, "/status.json")
        final = json.loads(body)
        if final.get("phase") != "done":
            failures.append(f"final snapshot phase is "
                            f"{final.get('phase')!r}, expected 'done'")
        if final.get("telemetry", {}).get("counters") \
                != sim.report().counters:
            failures.append("final snapshot counters differ from the "
                            "run report's")
        status, body = fetch(base, "/series.json")
        series = json.loads(body).get("series", {})
        if status != 200 or not series:
            failures.append(f"/series.json returned {status} with "
                            f"{len(series)} series")
        status, body = fetch(base, "/health.json")
        health = json.loads(body).get("health", [])
        if status != 200 or not health:
            failures.append(f"/health.json returned {status} with "
                            f"{len(health)} rows")
        __, metrics = fetch(base, "/metrics")
        if 'pia_phase{phase="done"} 1' not in metrics:
            failures.append("final /metrics does not expose the done phase")
        server.shutdown()
        server.server_close()

    wall = time.perf_counter() - started
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"http smoke OK ({len(series)} series, {len(health)} health "
          f"rows, {wall:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
