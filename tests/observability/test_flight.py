"""The flight recorder: ring semantics, stride sampling, dumps, and the
always-on hook in the scheduler run loops.  The black box is a trace: its
records are ``TraceRecord``s and its dump reads back through the trace
tooling."""

import json

import pytest

from repro.core.events import Event, EventKind
from repro.core.subsystem import Subsystem
from repro.core.timestamp import Timestamp
from repro.observability import (
    NULL_TELEMETRY,
    Telemetry,
    TimeSeries,
    TimeSeriesRecorder,
    TraceBuffer,
    TraceKind,
    TraceRecord,
    chrome_trace,
    validate_chrome_trace,
)
from repro.observability.export import trace_records
from repro.observability.flight import (
    ENV_DIR,
    STRIDE,
    FlightRecorder,
    flight_path,
)


class TestRecorder:
    def test_note_round_trips(self):
        flight = FlightRecorder()
        flight.note(TraceKind.STALL, "engine", time=4.5, horizon=4.0)
        record, = list(flight)
        assert isinstance(record, TraceRecord)
        assert record.kind == TraceKind.STALL
        assert record.subject == "engine"
        assert record.time == 4.5
        assert record.details == {"horizon": 4.0}
        assert record.wall > 0

    def test_disabled_recorder_is_a_noop(self):
        flight = FlightRecorder(enabled=False)
        flight.note(TraceKind.STALL, "engine")
        assert len(flight) == 0
        assert flight.appended == 0
        assert flight.dump(tag="t") is None

    def test_ring_keeps_only_the_tail(self):
        flight = FlightRecorder(capacity=4)
        for n in range(10):
            flight.note(TraceKind.DISPATCH, f"s{n}")
        assert flight.appended == 10
        assert flight.dropped == 6
        assert [r.subject for r in flight] \
            == ["s6", "s7", "s8", "s9"]

    @pytest.mark.parametrize("ring", [
        TraceBuffer, FlightRecorder,
        lambda capacity: TimeSeries("s", capacity),
        lambda capacity: TimeSeriesRecorder(capacity=capacity),
    ], ids=["trace", "flight", "series", "series-recorder"])
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_one_capacity_rule(self, ring, capacity):
        """Every ring (and the recorder that will build rings later)
        rejects a capacity below 1 at construction time."""
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            ring(capacity)


class TestDump:
    def test_dumps_is_jsonl_with_header(self):
        flight = FlightRecorder()
        flight.note(TraceKind.STALL, "engine", time=1.0, next_event=3.0)
        lines = flight.dumps(tag="worker", reason="test").splitlines()
        header = json.loads(lines[0])
        assert header["flight"] == "worker"
        assert header["reason"] == "test"
        assert header["recorded"] == 1
        record, = list(flight)
        assert json.loads(lines[1]) == dict(record.to_dict(),
                                            wall=record.wall)

    def test_dump_lines_read_back_as_a_trace(self):
        telemetry = Telemetry()
        telemetry.note(TraceKind.STALL, time=1.0, subject="engine",
                       horizon=1.0, next_event=3.0)
        telemetry.note(TraceKind.MIGRATION, time=2.0, subject="n1",
                       reason="requested", epoch=1)
        lines = telemetry.flight.dumps().splitlines()[1:]
        records = trace_records([json.loads(line) for line in lines])
        assert records == trace_records(telemetry)
        assert validate_chrome_trace(chrome_trace(records)) == []

    def test_dump_writes_to_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        flight = FlightRecorder()
        flight.note(TraceKind.NODE_CRASH, "n-w0")
        path = flight.dump(tag="n-w0", reason="boom")
        assert path is not None
        assert path.startswith(str(tmp_path))
        first = json.loads(open(path, encoding="utf-8").readline())
        assert first["reason"] == "boom"

    def test_dump_failure_returns_none(self, tmp_path):
        flight = FlightRecorder()
        flight.note(TraceKind.STALL)
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
        assert [r.seq for r in flight
                if r.kind == TraceKind.DISPATCH] \
            == [STRIDE, 2 * STRIDE]
        # The sampled dispatches live in the black box only: these
        # dispatches have no cause, so the full trace records none of them.
        assert list(telemetry.trace_buffer) == []

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
