"""``NetworkAccounting.charge`` is the one body that charges a frame:
per-link totals, jitter ordinals, the health feed and the registry
counters it holds per link.  Held handles must be indistinguishable from
the by-name increments they replaced — across a registry reset, a
telemetry swap and the on/off gate."""

from repro.observability import Telemetry
from repro.transport import SAME_HOST, NetworkAccounting
from repro.transport.latency import LatencyModel


def _accounting():
    accounting = NetworkAccounting(SAME_HOST)
    accounting.telemetry = Telemetry()
    return accounting


def _counters(accounting):
    return accounting.telemetry.registry.snapshot()["counters"]


class TestBoundCounters:
    def test_one_message_feeds_the_global_and_the_link_counters(self):
        accounting = _accounting()
        accounting.charge("a", "b", 100)
        accounting.charge("a", "b", 20)
        accounting.charge("b", "a", 7)
        assert _counters(accounting) == {
            "transport.messages": 3, "transport.bytes": 127,
            "transport.frames_sent": 3, "transport.bytes_on_wire": 127,
            "link.a->b.messages": 2, "link.a->b.bytes": 120,
            "link.b->a.messages": 1, "link.b->a.bytes": 7}

    def test_a_batch_frame_counts_its_members_and_one_frame(self):
        accounting = _accounting()
        accounting.charge("a", "b", 300, 5)
        snapshot = accounting.telemetry.registry.snapshot()
        assert snapshot["counters"]["transport.messages"] == 5
        assert snapshot["counters"]["transport.frames_sent"] == 1
        assert snapshot["counters"]["link.a->b.messages"] == 5
        assert snapshot["histograms"]["transport.batch_size"]["count"] == 1
        assert snapshot["histograms"]["transport.batch_size"]["total"] == 5

    def test_a_grant_only_frame_never_creates_the_histogram(self):
        accounting = _accounting()
        accounting.charge("a", "b", 40, 0)
        snapshot = accounting.telemetry.registry.snapshot()
        assert snapshot["histograms"] == {}
        assert snapshot["counters"]["transport.messages"] == 0
        assert snapshot["counters"]["transport.frames_sent"] == 1

    def test_a_telemetry_swap_moves_the_counting_with_it(self):
        accounting = _accounting()
        first = accounting.telemetry
        accounting.charge("a", "b", 100)
        accounting.telemetry = Telemetry()
        accounting.charge("a", "b", 1)
        assert first.registry.counter("transport.bytes").value == 100
        assert _counters(accounting)["transport.bytes"] == 1

    def test_the_gate_still_decides_what_is_counted(self):
        accounting = _accounting()
        accounting.telemetry.disable()
        accounting.charge("a", "b", 100)
        assert _counters(accounting) == {}
        accounting.telemetry.enabled = True
        accounting.charge("a", "b", 3)
        accounting.telemetry.disable()
        accounting.charge("a", "b", 50)
        assert _counters(accounting)["transport.bytes"] == 3
        assert accounting.total_bytes == 153     # LinkStats saw all three


class TestJitterOrdinals:
    """One body charges every frame; what orders a link's jitter is the
    kind of frame: a lone message counts messages, a batch frame frames."""

    def _jittered(self):
        return NetworkAccounting(LatencyModel(
            "j", latency=1e-3, bandwidth=1e6, jitter=0.5))

    def test_a_lone_message_is_ordered_by_the_message_count(self):
        accounting = self._jittered()
        accounting.charge("a", "b", 400, 4)      # 4 messages, 1 frame
        model = accounting.links[("a", "b")].model
        assert accounting.charge("a", "b", 100) == model.delay(100, seq=4)

    def test_a_batch_frame_is_ordered_by_the_frame_count(self):
        accounting = self._jittered()
        accounting.charge("a", "b", 100)
        accounting.charge("a", "b", 400, 4)      # 5 messages, 2 frames
        model = accounting.links[("a", "b")].model
        assert accounting.charge("a", "b", 200, 2) == \
            model.delay(200, seq=2)

    def test_the_delays_are_the_figures_of_the_two_bodies_it_replaced(self):
        accounting = self._jittered()
        delays = [accounting.charge("a", "b", 100),
                  accounting.charge("a", "b", 100),
                  accounting.charge("a", "b", 400, 4),
                  accounting.charge("a", "b", 100),
                  accounting.charge("a", "b", 50, 0),
                  accounting.charge("a", "b", 200, 2),
                  accounting.charge("b", "a", 100)]
        assert delays == [0.00055, 0.0007071428571428571, 0.0011,
                          0.001492857142857143, 0.001125,
                          0.0014571428571428574, 0.00055]
        assert accounting.report() == [
            ("a", "b", "j", 9, 950, 0.006432142857142858, 6),
            ("b", "a", "j", 1, 100, 0.00055, 1)]

    def test_the_health_feed_sees_each_frame_and_its_members(self):
        seen = []

        class Monitor:
            def on_send(self, *args):
                seen.append(args)

        accounting = self._jittered()
        accounting.health = Monitor()
        first = accounting.charge("a", "b", 100)
        frame = accounting.charge("a", "b", 400, 4)
        grants = accounting.charge("a", "b", 50, 0)
        assert seen == [("a", "b", 100, 1, first), ("a", "b", 400, 4, frame),
                        ("a", "b", 50, 0, grants)]
