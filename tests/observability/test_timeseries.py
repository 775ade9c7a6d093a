"""Streaming time-series: rings, cadences, deltas, executor sampling."""

import pytest

from repro.bench.workloads import streaming_pair
from repro.observability import (
    MetricsRegistry,
    Telemetry,
    TimeSeries,
    TimeSeriesRecorder,
)


def registry_with(counters=(), gauges=()):
    registry = MetricsRegistry()
    for name, value in counters:
        registry.counter(name).inc(value)
    for name, value in gauges:
        registry.gauge(name).set(value)
    return registry


class TestTimeSeries:
    def test_ring_is_bounded_but_appended_counts_all(self):
        series = TimeSeries("s", capacity=3)
        for n in range(5):
            series.append(float(n), n)
        assert series.as_list() == [[2.0, 2], [3.0, 3], [4.0, 4]]
        assert len(series) == 3
        assert series.appended == 5


class TestRecorderCadences:
    def test_defaults_to_virtual_interval_of_one(self):
        recorder = TimeSeriesRecorder()
        assert recorder.virtual_interval == 1.0
        assert recorder.wall_interval is None

    @pytest.mark.parametrize("kwargs", [
        {"virtual_interval": 0.0}, {"virtual_interval": -1.0},
        {"wall_interval": 0.0}, {"wall_interval": -0.5},
    ])
    def test_non_positive_intervals_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(**kwargs)

    def test_virtual_cadence_samples_once_per_crossing(self):
        recorder = TimeSeriesRecorder(virtual_interval=1.0)
        registry = registry_with(counters=[("c", 1)])
        # t=0 due; 0.5 not due; 1.7 due (crossed 1.0); 1.9 not due
        # (next is 2.0); 5.0 due once even though it skipped 2..4.
        assert [recorder.tick(t, registry)
                for t in (0.0, 0.5, 1.7, 1.9, 5.0)] \
            == [True, False, True, False, True]
        assert recorder.samples == 3

    def test_wall_cadence_arms_on_first_tick(self):
        recorder = TimeSeriesRecorder(wall_interval=1.0)
        registry = registry_with(counters=[("c", 1)])
        assert recorder.tick(0.0, registry, wall=10.0) is False  # arms
        assert recorder.tick(0.0, registry, wall=10.5) is False
        assert recorder.tick(0.0, registry, wall=11.2) is True
        assert recorder.tick(0.0, registry, wall=11.5) is False

    def test_sample_covers_counters_and_gauges_with_name_filter(self):
        registry = registry_with(counters=[("keep.me", 3), ("drop.me", 9)],
                                 gauges=[("keep.depth", 2.5)])
        recorder = TimeSeriesRecorder(names=["keep.me", "keep.depth"])
        recorder.sample(1.0, registry)
        assert sorted(recorder.series) == ["keep.depth", "keep.me"]
        assert recorder.to_dict()["keep.me"]["points"] == [[1.0, 3]]


class TestCooperativeSampling:
    def test_cooperative_runs_sample_deterministically(self):
        dumps = []
        for _ in range(2):
            cosim = streaming_pair(20, 1.0)
            recorder = cosim.telemetry.attach_series(
                TimeSeriesRecorder(virtual_interval=2.0))
            cosim.run()
            assert recorder.samples > 0
            dumps.append(recorder.to_dict())
        assert dumps[0] == dumps[1]

    def test_report_carries_series_only_when_asked(self):
        cosim = streaming_pair(20, 1.0)
        cosim.telemetry.attach_series(TimeSeriesRecorder())
        cosim.run()
        report = cosim.report()
        assert report.timeseries
        assert "timeseries" not in report.to_dict()
        assert report.to_dict(include_series=True)["timeseries"] \
            == report.timeseries
        assert "time-series:" in report.render()

    def test_attach_series_is_returned(self):
        telemetry = Telemetry()
        recorder = telemetry.attach_series(TimeSeriesRecorder())
        assert telemetry.series is recorder


class TestMultiprocessMirror:
    def test_worker_spec_carries_the_whole_recorder(self):
        """A multiprocess executor ships the recorder it was handed —
        cadences, ring capacity and metric names — so every worker's
        recorder is built with the same arguments."""
        from repro.distributed import MultiprocessCoSimulation
        from repro.observability import LinkHealthMonitor

        telemetry = Telemetry(trace_capacity=64)
        telemetry.attach_series(TimeSeriesRecorder(
            virtual_interval=2.0, wall_interval=0.5, capacity=8,
            names=["scheduler.stalls"]))
        cosim = MultiprocessCoSimulation(telemetry=telemetry)
        cosim.spec.add_node("n0")
        mirror = cosim.worker_spec("n0").telemetry
        assert (mirror.trace_capacity, mirror.health) == (64, False)
        twin = TimeSeriesRecorder(**mirror.series)
        assert (twin.virtual_interval, twin.wall_interval, twin.capacity,
                twin.names) == (2.0, 0.5, 8, {"scheduler.stalls"})
        telemetry.health = LinkHealthMonitor()
        assert cosim.worker_spec("n0").telemetry.health is True
        plain = MultiprocessCoSimulation()
        plain.spec.add_node("n0")
        assert plain.worker_spec("n0").telemetry \
            == (Telemetry().trace_buffer.capacity, None, False)
