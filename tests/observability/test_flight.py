"""The flight recorder: ring semantics, stride sampling, dumps, and the
always-on hook in the scheduler run loops."""

import json

from repro.core.events import Event, EventKind
from repro.core.subsystem import Subsystem
from repro.core.timestamp import Timestamp
from repro.observability import NULL_TELEMETRY, Telemetry
from repro.observability.flight import (
    ENV_DIR,
    STRIDE,
    FlightRecorder,
    flight_path,
)


class TestRecorder:
    def test_note_round_trips(self):
        flight = FlightRecorder()
        flight.note("stall", "engine", time=4.5, horizon=4.0)
        record, = flight.records()
        assert record["code"] == "stall"
        assert record["subject"] == "engine"
        assert record["time"] == 4.5
        assert record["details"] == {"horizon": 4.0}
        assert record["wall"] > 0

    def test_disabled_recorder_is_a_noop(self):
        flight = FlightRecorder(enabled=False)
        flight.note("stall", "engine")
        assert len(flight) == 0
        assert flight.recorded == 0
        assert flight.dump(tag="t") is None

    def test_ring_keeps_only_the_tail(self):
        flight = FlightRecorder(capacity=4)
        for n in range(10):
            flight.note("dispatch", f"s{n}")
        assert flight.recorded == 10
        assert [r["subject"] for r in flight.records()] \
            == ["s6", "s7", "s8", "s9"]

    def test_clear_resets_everything(self):
        flight = FlightRecorder()
        flight.note("x")
        flight.dispatch_seq = 1
        flight.clear()
        assert len(flight) == 0
        assert flight.recorded == 0
        assert flight.dispatch_seq == 0


class TestDump:
    def test_dumps_is_jsonl_with_header(self):
        flight = FlightRecorder()
        flight.note("stall", "engine", time=1.0)
        lines = flight.dumps(tag="worker", reason="test").splitlines()
        header = json.loads(lines[0])
        assert header["flight"] == "worker"
        assert header["reason"] == "test"
        assert header["recorded"] == 1
        assert json.loads(lines[1])["code"] == "stall"

    def test_dump_writes_to_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        flight = FlightRecorder()
        flight.note("crash", "n-w0")
        path = flight.dump(tag="n-w0", reason="boom")
        assert path is not None
        assert path.startswith(str(tmp_path))
        first = json.loads(open(path, encoding="utf-8").readline())
        assert first["reason"] == "boom"

    def test_dump_failure_returns_none(self, tmp_path):
        flight = FlightRecorder()
        flight.note("x")
        assert flight.dump(str(tmp_path / "no" / "such" / "dir" / "f")) \
            is None

    def test_flight_path_sanitises_tags(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        path = flight_path("n/hub:0")
        assert path.startswith(str(tmp_path))
        assert "pia-flight-n_hub_0-" in path


class TestSchedulerHook:
    def _run(self, telemetry, events=2 * STRIDE + 100):
        subsystem = Subsystem("hot")
        subsystem.attach_telemetry(telemetry)
        scheduler = subsystem.scheduler
        remaining = events
        clock = 0.0

        def tick(event):
            nonlocal remaining, clock
            remaining -= 1
            clock += 1.0
            if remaining > 0:
                scheduler.schedule(Event(Timestamp(clock),
                                         EventKind.CONTROL, tick))

        scheduler.schedule(Event(Timestamp(0.0), EventKind.CONTROL, tick))
        scheduler.run()
        return subsystem

    def test_run_loop_stride_samples_into_the_flight_ring(self):
        telemetry = Telemetry()
        self._run(telemetry)
        flight = telemetry.flight
        assert flight.dispatch_seq == 2 * STRIDE + 100
        seqs = [r["details"]["seq"] for r in flight.records()
                if r["code"] == "dispatch"]
        assert seqs == [STRIDE, 2 * STRIDE]

    def test_flight_stays_on_with_metrics_gate_disabled(self):
        telemetry = Telemetry()
        telemetry.disable()
        self._run(telemetry)
        assert telemetry.flight.dispatch_seq == 2 * STRIDE + 100
        assert len(telemetry.flight) == 2

    def test_null_telemetry_flight_is_dark(self):
        before = NULL_TELEMETRY.flight.dispatch_seq
        self._run(NULL_TELEMETRY)
        assert NULL_TELEMETRY.flight.dispatch_seq == before
        assert len(NULL_TELEMETRY.flight) == 0

    def test_reset_clears_the_ring(self):
        telemetry = Telemetry()
        self._run(telemetry)
        telemetry.reset()
        assert len(telemetry.flight) == 0
        assert telemetry.flight.dispatch_seq == 0
