"""Telemetry bit-identity: turning the continuous telemetry plane on —
time-series sampling, per-link health and live status snapshots — must
leave a run's deterministic report projection byte for byte unchanged.

Each case runs the same workload twice, dark and fully instrumented, and
compares ``report.to_dict()`` (the default projection excludes the
wall-clock-bearing sections: timings, health rows, series).  What a
multiprocess run shows live is the same fold as what it reports."""

from repro.bench.workloads import (
    compute_star,
    compute_star_multiprocess,
    streaming_pair,
)
from repro.observability import (
    LinkHealthMonitor,
    Telemetry,
    TimeSeriesRecorder,
    attach_health,
)
from repro.faults import FaultPlan, NodeCrash


def telemetry_kwargs():
    """The plane is configured on the ``Telemetry`` handed in; every
    worker mirrors it."""
    telemetry = Telemetry()
    telemetry.attach_series(TimeSeriesRecorder(virtual_interval=1.0,
                                               wall_interval=0.5))
    telemetry.health = LinkHealthMonitor()
    return dict(telemetry=telemetry)


class Snapshots(list):
    """A ``status_listener`` keeping every snapshot it is handed."""

    def __call__(self, snapshot):
        self.append(snapshot)


class TestMultiprocess:
    def _run(self, listener=None, **kwargs):
        cosim = compute_star_multiprocess(2, 3, words=50, **kwargs)
        cosim.run(until=100.0, timeout=60.0, status_listener=listener,
                  status_interval=0.0)
        return cosim.report()

    def test_streaming_run_matches_dark_run(self):
        dark = self._run()
        seen = Snapshots()
        lit = self._run(seen, **telemetry_kwargs())
        assert lit.to_dict() == dark.to_dict()
        assert "telemetry" in seen[-1]
        # ...and the instrumented run actually produced the sections.
        assert lit.link_health
        assert lit.timeseries
        assert not dark.link_health
        assert not dark.timeseries

    def test_streaming_run_matches_dark_run_on_shm(self):
        dark = self._run(transport="shm")
        lit = self._run(Snapshots(), transport="shm", **telemetry_kwargs())
        assert lit.to_dict() == dark.to_dict()
        assert lit.link_health

    def test_streaming_run_matches_dark_run_unbatched(self):
        dark = self._run(batching=False)
        lit = self._run(Snapshots(), batching=False, **telemetry_kwargs())
        assert lit.to_dict() == dark.to_dict()

    def test_opt_in_projections_carry_the_new_sections(self):
        lit = self._run(Snapshots(), **telemetry_kwargs())
        document = lit.to_dict(include_health=True, include_series=True)
        assert document["link_health"] == lit.link_health
        assert document["timeseries"] == lit.timeseries
        # series keys are node-qualified after the merge
        assert all("/" in name for name in lit.timeseries)


class TestLiveViewIsTheReport:
    """A run that publishes status snapshots gets its telemetry sections
    with no further option, and the parting ``done`` snapshot shows
    what :meth:`report` reports — also after a node failed over."""

    def _run(self, **kwargs):
        seen = Snapshots()
        cosim = compute_star_multiprocess(2, 3, words=50,
                                          **telemetry_kwargs(), **kwargs)
        cosim.run(timeout=60.0, status_listener=seen, status_interval=0.0)
        assert seen and all(
            {"telemetry", "series", "health"} <= set(snapshot)
            for snapshot in seen)
        assert seen[-1]["phase"] == "done"
        return cosim, seen

    def test_plain_run(self):
        cosim, seen = self._run()
        report = cosim.report()
        assert seen[-1]["telemetry"]["counters"] == report.counters
        assert seen[-1]["series"] == report.timeseries
        assert seen[-1]["health"]

    def test_failed_over_run(self):
        cosim, seen = self._run(
            failure_policy="recover",
            fault_plan=FaultPlan(seed=3,
                                 crashes=(NodeCrash("n-w0", at_time=1.0),)))
        assert [m.kind for m in cosim.migrations] == ["failover"]
        assert seen[-1]["telemetry"]["counters"] == cosim.report().counters


class TestSingleProcessExecutors:
    def _instrument(self, cosim):
        cosim.telemetry.attach_series(TimeSeriesRecorder())
        attach_health(cosim.transport, cosim.telemetry)
        return cosim

    def test_cooperative_identity(self):
        dark = streaming_pair(30, 1.0)
        dark.run()
        lit = self._instrument(streaming_pair(30, 1.0))
        lit.run()
        assert lit.report().to_dict() == dark.report().to_dict()
        assert lit.report().link_health
        assert lit.report().timeseries

    def test_threaded_identity(self):
        dark = compute_star(2, 3, words=50, executor="threaded")
        dark.run(until=100.0)
        lit = self._instrument(
            compute_star(2, 3, words=50, executor="threaded"))
        lit.run(until=100.0)
        dark_doc, lit_doc = dark.report().to_dict(), lit.report().to_dict()
        # Threaded runs interleave nondeterministically, so compare the
        # deterministic core rather than whole documents.
        assert [row["name"] for row in lit_doc["subsystems"]] \
            == [row["name"] for row in dark_doc["subsystems"]]
        assert sorted((row["name"], row["time"])
                      for row in lit_doc["subsystems"]) \
            == sorted((row["name"], row["time"])
                      for row in dark_doc["subsystems"])
        assert lit.report().link_health
        assert lit.report().timeseries
