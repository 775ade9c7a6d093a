"""NetworkAccounting feeds the metrics registry through counter objects
it holds per link.  Held handles must be indistinguishable from the
by-name increments they replaced — across a registry reset, a telemetry
swap and the on/off gate."""

from repro.observability import Telemetry
from repro.transport import SAME_HOST, NetworkAccounting


def _accounting():
    accounting = NetworkAccounting(SAME_HOST)
    accounting.telemetry = Telemetry()
    return accounting


def _counters(accounting):
    return accounting.telemetry.registry.snapshot()["counters"]


class TestBoundCounters:
    def test_one_message_feeds_the_global_and_the_link_counters(self):
        accounting = _accounting()
        accounting.record("a", "b", 100)
        accounting.record("a", "b", 20)
        accounting.record("b", "a", 7)
        assert _counters(accounting) == {
            "transport.messages": 3, "transport.bytes": 127,
            "transport.frames_sent": 3, "transport.bytes_on_wire": 127,
            "link.a->b.messages": 2, "link.a->b.bytes": 120,
            "link.b->a.messages": 1, "link.b->a.bytes": 7}

    def test_a_batch_frame_counts_its_members_and_one_frame(self):
        accounting = _accounting()
        accounting.record_frame("a", "b", 300, 5)
        snapshot = accounting.telemetry.registry.snapshot()
        assert snapshot["counters"]["transport.messages"] == 5
        assert snapshot["counters"]["transport.frames_sent"] == 1
        assert snapshot["counters"]["link.a->b.messages"] == 5
        assert snapshot["histograms"]["transport.batch_size"]["count"] == 1
        assert snapshot["histograms"]["transport.batch_size"]["total"] == 5

    def test_a_grant_only_frame_never_creates_the_histogram(self):
        accounting = _accounting()
        accounting.record_frame("a", "b", 40, 0)
        snapshot = accounting.telemetry.registry.snapshot()
        assert snapshot["histograms"] == {}
        assert snapshot["counters"]["transport.messages"] == 0
        assert snapshot["counters"]["transport.frames_sent"] == 1

    def test_a_telemetry_swap_moves_the_counting_with_it(self):
        accounting = _accounting()
        first = accounting.telemetry
        accounting.record("a", "b", 100)
        accounting.telemetry = Telemetry()
        accounting.record("a", "b", 1)
        assert first.registry.counter("transport.bytes").value == 100
        assert _counters(accounting)["transport.bytes"] == 1

    def test_the_gate_still_decides_what_is_counted(self):
        accounting = _accounting()
        accounting.telemetry.disable()
        accounting.record("a", "b", 100)
        assert _counters(accounting) == {}
        accounting.telemetry.enabled = True
        accounting.record("a", "b", 3)
        accounting.telemetry.disable()
        accounting.record("a", "b", 50)
        assert _counters(accounting)["transport.bytes"] == 3
        assert accounting.total_bytes == 153     # LinkStats saw all three
