"""The HTTP telemetry endpoint: Prometheus rendering and the routes."""

import json
import threading
import urllib.error
import urllib.request

from repro.observability.serve import (
    make_server,
    prometheus_text,
    read_snapshot,
    serve_status_file,
)

SNAPSHOT = {
    "phase": "running",
    "global_time": 12.5,
    "until": 100.0,
    "nodes": {
        "hub": {"idle": False, "rounds": 7, "pending": 2, "wire_out": 40,
                "wire_in": 39, "heartbeat_age": 0.01,
                "subsystems": [{"name": "engine", "time": 12.5,
                                "dispatched": 900, "stalls": 3,
                                "queue_depth": 1}]},
    },
    "telemetry": {
        "counters": {"scheduler.dispatched": 900, "bad": float("inf"),
                     "worse": float("nan")},
        "gauges": {"queue.depth": 4.0, "flag": True},
    },
    "health": [{"src": "hub", "dst": "leaf", "messages": 40, "bytes": 800,
                "ewma_delay": 0.001, "rate": 50.0, "queue_depth": 0.5,
                "stall_fraction": 0.3, "score": 0.82,
                "recommendation": "optimistic"}],
    "series": {"hub/scheduler.dispatched": {"points": [[1.0, 10],
                                                       [2.0, 900]]},
               "hub/empty": {"points": []}},
}


class TestPrometheusText:
    def test_snapshot_renders_every_section(self):
        text = prometheus_text(SNAPSHOT)
        assert 'pia_phase{phase="running"} 1' in text
        assert "pia_global_time 12.5" in text
        assert 'pia_node_rounds{node="hub"} 7' in text
        assert ('pia_subsystem_dispatched_total'
                '{node="hub",subsystem="engine"} 900') in text
        assert ('pia_counter_total{name="scheduler_dispatched"} 900'
                in text)
        assert 'pia_gauge{name="queue_depth"} 4' in text
        assert 'pia_link_health_score{dst="leaf",src="hub"} 0.82' in text
        assert 'pia_link_stall_fraction{dst="leaf",src="hub"} 0.3' in text
        assert ('pia_series_last{name="hub_scheduler_dispatched"} 900'
                in text)

    def test_type_headers_emitted_once(self):
        text = prometheus_text(SNAPSHOT)
        assert text.count("# TYPE pia_counter_total counter") == 1
        assert text.count("# TYPE pia_link_health_score gauge") == 1

    def test_non_finite_and_non_numeric_values_skipped(self):
        text = prometheus_text(SNAPSHOT)
        assert 'name="bad"' not in text
        assert 'name="worse"' not in text
        # booleans render as 0/1 instead of being dropped
        assert 'pia_gauge{name="flag"} 1' in text

    def test_empty_series_skipped(self):
        assert 'name="hub_empty"' not in prometheus_text(SNAPSHOT)

    def test_none_snapshot_yields_minimal_exposition(self):
        text = prometheus_text(None)
        assert 'pia_phase{phase="unknown"} 1' in text
        assert "pia_global_time" not in text

    def test_label_escaping(self):
        text = prometheus_text({"phase": 'we"ird\nphase'})
        assert 'phase="we\\"ird\\nphase"' in text


def fetch(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestServer:
    def _serve(self, server):
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        return f"http://{host}:{port}"

    def test_routes_over_a_status_file(self, tmp_path):
        path = str(tmp_path / "status.json")
        server = serve_status_file(path, port=0)
        base = self._serve(server)
        try:
            # No snapshot yet: metrics still answers, JSON says 503.
            status, text = fetch(base, "/metrics")
            assert status == 200
            assert 'pia_phase{phase="unknown"} 1' in text
            status, body = fetch(base, "/status.json")
            assert status == 503
            assert "no status snapshot" in json.loads(body)["error"]

            with open(path, "w", encoding="utf-8") as fh:
                json.dump(SNAPSHOT, fh)
            status, body = fetch(base, "/status.json")
            assert status == 200
            assert json.loads(body)["phase"] == "running"
            status, body = fetch(base, "/series.json")
            assert status == 200
            assert "hub/scheduler.dispatched" in json.loads(body)["series"]
            status, body = fetch(base, "/health.json")
            assert status == 200
            assert json.loads(body)["health"][0]["dst"] == "leaf"
            status, text = fetch(base, "/metrics")
            assert status == 200
            assert 'pia_phase{phase="running"} 1' in text
        finally:
            server.shutdown()
            server.server_close()

    def test_index_and_unknown_paths(self):
        server = make_server(lambda: SNAPSHOT, port=0)
        base = self._serve(server)
        try:
            status, body = fetch(base, "/")
            assert status == 200
            assert "/metrics" in body
            status, body = fetch(base, "/nope")
            assert status == 404
            assert "unknown path" in json.loads(body)["error"]
            # trailing slashes and aliases resolve
            status, __ = fetch(base, "/status/")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()


class TestReadSnapshot:
    def test_read_snapshot_missing_or_torn_is_none(self, tmp_path):
        assert read_snapshot(str(tmp_path / "missing.json")) is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"phase": "runn')
        assert read_snapshot(str(torn)) is None
