"""Live introspection: status snapshots and the console view over them."""

import io
import json
import threading
import time

from repro.observability import RunReport
from repro.observability.live import (
    follow,
    follow_ndjson,
    main,
    read_snapshot,
    render_status,
    status_snapshot,
)

WORKER_STATUS = {
    "node": "n-w0",
    "idle": False,
    "rounds": 12,
    "pending": 1,
    "wire_out": 5,
    "wire_in": 4,
    "wall": 0.0,
    "subsystems": [{
        "name": "w0", "time": 3.5, "next_event": 4.0, "dispatched": 7,
        "stalls": 2, "queue_depth": 1, "horizon": float("inf"),
        "stalled": False, "waiting_on": "hub@n-hub",
    }],
}


class TestStatusSnapshot:
    def test_json_safe_and_complete(self):
        snapshot = status_snapshot({"n-w0": WORKER_STATUS}, until=10.0)
        json.dumps(snapshot)    # must not choke on inf
        node = snapshot["nodes"]["n-w0"]
        row = node["subsystems"][0]
        assert snapshot["phase"] == "running"
        assert snapshot["until"] == 10.0
        assert snapshot["global_time"] == 3.5
        assert row["horizon"] is None           # inf -> null
        assert row["waiting_on"] == "hub@n-hub"
        assert node["heartbeat_age"] >= 0.0

    def test_infinite_until_is_null(self):
        snapshot = status_snapshot({"n-w0": WORKER_STATUS})
        assert snapshot["until"] is None

    def test_done_phase_carried_through(self):
        snapshot = status_snapshot({}, phase="done")
        assert snapshot["phase"] == "done"
        assert snapshot["global_time"] == 0.0

    def test_telemetry_sections_are_the_report_folded_so_far(self):
        report = RunReport("live")
        report.counters = {"safetime.served": 3}
        report.gauges = {"horizon": float("inf")}
        report.timeseries = {"n-w0/c": {"points": [[1.0, float("inf")]]}}
        report.link_health = [{"src": "n-w0", "dst": "n-hub", "score": 1.0}]
        snapshot = status_snapshot({"n-w0": WORKER_STATUS}, report=report)
        json.dumps(snapshot)
        assert snapshot["telemetry"] == {"counters": {"safetime.served": 3},
                                         "gauges": {"horizon": None}}
        assert snapshot["series"] == {"n-w0/c": {"points": [[1.0, None]]}}
        assert snapshot["health"] == report.link_health
        assert "telemetry" not in status_snapshot({"n-w0": WORKER_STATUS})


class TestRenderStatus:
    def test_view_includes_every_field_a_human_needs(self):
        snapshot = status_snapshot({"n-w0": WORKER_STATUS}, until=10.0)
        view = render_status(snapshot)
        assert "phase=running" in view
        assert "node n-w0" in view
        assert "busy" in view
        assert "hub@n-hub" in view
        assert "w0" in view

    def test_infinite_values_render_as_dash(self):
        snapshot = status_snapshot({"n-w0": WORKER_STATUS})
        view = render_status(snapshot)
        assert "until=-" in view


class TestFileTailing:
    def write(self, path, snapshot):
        path.write_text(json.dumps(snapshot))

    def test_read_snapshot_missing_or_torn_is_none(self, tmp_path):
        assert read_snapshot(str(tmp_path / "missing.json")) is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"phase": "runn')
        assert read_snapshot(str(torn)) is None

    def test_follow_stops_on_done_phase(self, tmp_path):
        path = tmp_path / "status.json"
        self.write(path, status_snapshot({"n-w0": WORKER_STATUS},
                                         phase="done"))
        out = io.StringIO()
        last = follow(str(path), interval=0.01, out=out)
        assert last["phase"] == "done"
        assert "phase=done" in out.getvalue()

    def test_follow_respects_iteration_budget(self, tmp_path):
        path = tmp_path / "status.json"
        self.write(path, status_snapshot({"n-w0": WORKER_STATUS}))
        out = io.StringIO()
        follow(str(path), interval=0.01, iterations=2, out=out)
        assert out.getvalue().count("phase=running") == 2

    def test_main_once_mode(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        self.write(path, status_snapshot({"n-w0": WORKER_STATUS}))
        assert main(["--once", str(path)]) == 0
        assert "node n-w0" in capsys.readouterr().out

    def test_main_once_without_file_fails(self, tmp_path, capsys):
        assert main(["--once", str(tmp_path / "none.json")]) == 1
        assert "no status snapshot" in capsys.readouterr().err

    def test_follow_ndjson_emits_compact_lines(self, tmp_path):
        path = tmp_path / "status.json"
        self.write(path, status_snapshot({"n-w0": WORKER_STATUS},
                                         phase="done"))
        out = io.StringIO()
        last = follow_ndjson(str(path), interval=0.01, out=out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        document = json.loads(lines[0])
        assert document == last
        assert document["phase"] == "done"
        assert "\n" not in lines[0].strip()
        # compact separators, not the pretty renderer
        assert ": " not in lines[0]

    def test_follow_ndjson_dedups_unchanged_snapshots(self, tmp_path):
        path = tmp_path / "status.json"
        first = status_snapshot({"n-w0": WORKER_STATUS})
        first["wall"] = 1.0
        self.write(path, first)

        def mutate():
            # same wall stamp: must not re-emit; then a new done snapshot.
            time.sleep(0.1)
            done = status_snapshot({"n-w0": WORKER_STATUS}, phase="done")
            done["wall"] = 2.0
            self.write(path, done)

        out = io.StringIO()
        mutator = threading.Thread(target=mutate)
        mutator.start()
        last = follow_ndjson(str(path), interval=0.01, out=out)
        mutator.join()
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["phase"] == "running"
        assert last["phase"] == "done"

    def test_follow_ndjson_respects_iteration_budget(self, tmp_path):
        path = tmp_path / "status.json"
        self.write(path, status_snapshot({"n-w0": WORKER_STATUS}))
        out = io.StringIO()
        last = follow_ndjson(str(path), interval=0.01, iterations=1,
                             out=out)
        assert last["phase"] == "running"
        assert len(out.getvalue().splitlines()) == 1

    def test_main_follow_mode(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        self.write(path, status_snapshot({"n-w0": WORKER_STATUS},
                                         phase="done"))
        assert main(["--follow", "--interval", "0.01", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["phase"] == "done"
