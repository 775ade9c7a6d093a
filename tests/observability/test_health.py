"""Per-link health: monitor math, report-time scoring, and the advisory
recommendation — plus the bit-identity guarantee that attaching a monitor
never perturbs the deterministic report projection."""

import pytest

from repro.bench.workloads import streaming_pair
from repro.observability import (
    LinkHealthMonitor,
    Telemetry,
    attach_health,
    finalize_health,
)
from repro.observability.health import STALL_OPTIMISTIC_THRESHOLD


class TestMonitor:
    def test_send_boundary_updates_ewma_and_rate(self):
        monitor = LinkHealthMonitor()
        monitor.on_send("a", "b", 100, 4, 2.0, wall=10.0)
        monitor.on_send("a", "b", 50, 1, 1.0, wall=11.0)
        row, = monitor.rows()
        assert (row["src"], row["dst"]) == ("a", "b")
        assert row["messages"] == 5
        assert row["frames"] == 2
        assert row["bytes"] == 150
        assert row["delay"] == 3.0
        # per-message delays 0.5 then 1.0: 0.5 + 0.2*(1.0-0.5)
        assert row["ewma_delay"] == pytest.approx(0.6)
        # 5 messages over a 1s wall span
        assert row["rate"] == pytest.approx(5.0)

    def test_single_frame_has_no_span_and_zero_rate(self):
        monitor = LinkHealthMonitor()
        monitor.on_send("a", "b", 10, 1, 0.5, wall=3.0)
        row, = monitor.rows()
        assert row["rate"] == 0.0

    def test_poll_boundary_tracks_inbound_depth(self):
        monitor = LinkHealthMonitor()
        monitor.on_send("a", "b", 10, 1, 0.5, wall=0.0)
        monitor.on_poll("b", 3)
        monitor.on_poll("b", 1)
        row, = monitor.rows()
        # 0 -> 0.6 -> 0.6 + 0.2*(1-0.6)
        assert row["queue_depth"] == pytest.approx(0.68)
        assert row["queue_peak"] == 3

    def test_rows_sorted_by_directed_link(self):
        monitor = LinkHealthMonitor()
        monitor.on_send("b", "a", 1, 1, 0.1, wall=0.0)
        monitor.on_send("a", "b", 1, 1, 0.1, wall=0.0)
        assert [(r["src"], r["dst"]) for r in monitor.rows()] \
            == [("a", "b"), ("b", "a")]


class TestFinalize:
    def _row(self, **overrides):
        row = {"src": "a", "dst": "b", "messages": 10, "frames": 10,
               "bytes": 100, "delay": 1.0, "ewma_delay": 0.0, "rate": 0.0,
               "queue_depth": 0.0, "queue_peak": 0}
        row.update(overrides)
        return row

    def test_quiet_link_scores_perfect_and_conservative(self):
        scored, = finalize_health([self._row()])
        assert scored["score"] == 1.0
        assert scored["stall_fraction"] == 0.0
        assert scored["recommendation"] == "conservative"

    def test_stalling_link_flips_to_optimistic(self):
        stalls = [{"subsystem": "con", "node": "b", "peer_node": "a",
                   "waited": 30.0, "waits": 3, "critical": True}]
        subsystems = [{"name": "con", "node": "b", "time": 100.0}]
        scored, = finalize_health([self._row()],
                                  stall_attribution=stalls,
                                  subsystems=subsystems)
        assert scored["stall_fraction"] == pytest.approx(0.3)
        assert scored["stall_fraction"] >= STALL_OPTIMISTIC_THRESHOLD
        assert scored["score"] == pytest.approx(1.0 - 0.6 * 0.3)
        assert scored["recommendation"] == "optimistic"

    def test_stall_fraction_clamps_at_one(self):
        stalls = [{"subsystem": "con", "node": "b", "peer_node": "a",
                   "waited": 500.0, "waits": 1, "critical": False}]
        subsystems = [{"name": "con", "node": "b", "time": 100.0}]
        scored, = finalize_health([self._row()],
                                  stall_attribution=stalls,
                                  subsystems=subsystems)
        assert scored["stall_fraction"] == 1.0
        assert scored["score"] == pytest.approx(0.4)

    def test_congested_queue_docks_a_quarter_weight(self):
        scored, = finalize_health([self._row(queue_depth=32.0)])
        # 32 of QUEUE_REF=64 -> queue term 0.5 -> dock 0.125
        assert scored["score"] == pytest.approx(0.875)

    def test_latency_dominance_is_relative_to_the_mean(self):
        slow, fast = finalize_health([
            self._row(ewma_delay=9.0),
            self._row(src="c", ewma_delay=1.0),
        ])
        # mean delay 5.0: terms 9/20 and 1/20, weight 0.15
        assert slow["score"] == pytest.approx(1.0 - 0.15 * 0.45)
        assert fast["score"] == pytest.approx(1.0 - 0.15 * 0.05)

    def test_no_span_means_zero_stall_fraction(self):
        stalls = [{"subsystem": "con", "node": "b", "peer_node": "a",
                   "waited": 30.0, "waits": 3, "critical": False}]
        scored, = finalize_health([self._row()], stall_attribution=stalls)
        assert scored["stall_fraction"] == 0.0


class TestAttachAndReport:
    def test_attach_health_wires_transport_and_telemetry(self):
        class FakeTransport:
            def attach_health(self, monitor):
                self.monitor = monitor

        transport = FakeTransport()
        telemetry = Telemetry()
        monitor = attach_health(transport, telemetry)
        assert transport.monitor is monitor
        assert telemetry.health is monitor

    def test_cosim_run_reports_scored_rows(self):
        cosim = streaming_pair(30, 1.0)
        attach_health(cosim.transport, cosim.telemetry)
        cosim.run()
        report = cosim.report()
        assert report.link_health
        row = report.link_health[0]
        assert row["messages"] > 0
        assert row["recommendation"] in ("conservative", "optimistic")
        assert 0.0 <= row["score"] <= 1.0
        assert "link health" in report.render()

    def test_monitor_never_perturbs_the_deterministic_projection(self):
        plain = streaming_pair(30, 1.0)
        plain.run()
        monitored = streaming_pair(30, 1.0)
        attach_health(monitored.transport, monitored.telemetry)
        monitored.run()
        assert monitored.report().to_dict() == plain.report().to_dict()
        assert "link_health" not in monitored.report().to_dict()
        document = monitored.report().to_dict(include_health=True)
        assert document["link_health"] == monitored.report().link_health
