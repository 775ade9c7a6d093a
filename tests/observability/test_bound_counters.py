"""Per-message counter sites hold their ``Counter`` (``BoundCounter``)
instead of looking it up by name on every increment.  A held handle must
be indistinguishable from the ``telemetry.count(name)`` it replaced —
created by the first increment and not before, across a registry reset,
a telemetry swap and the on/off gate — here for the handle itself and
for the seven safe-time / stall sites that use it."""

from repro.bench.workloads import streaming_pair_spec
from repro.core.port import PortDirection
from repro.distributed import build
from repro.observability import BoundCounter, Telemetry

SITES = ("safetime.piggybacked", "safetime.piggyback_sent",
         "safetime.pushed", "safetime.served", "safetime.requests",
         "safetime.grants_accepted", "scheduler.stalls")


def _counters(telemetry):
    return telemetry.registry.snapshot()["counters"]


class TestBoundCounter:
    def test_the_first_increment_creates_the_counter(self):
        telemetry, handle = Telemetry(), BoundCounter("x.hits")
        assert _counters(telemetry) == {}
        handle.inc(telemetry)
        handle.inc(telemetry, 4)
        assert _counters(telemetry) == {"x.hits": 5}

    def test_it_shares_the_counter_with_by_name_increments(self):
        telemetry, handle = Telemetry(), BoundCounter("x.hits")
        telemetry.count("x.hits", 2)
        handle.inc(telemetry)
        telemetry.count("x.hits")
        assert _counters(telemetry) == {"x.hits": 4}

    def test_a_telemetry_swap_moves_the_counting_with_it(self):
        first, second = Telemetry(), Telemetry()
        handle = BoundCounter("x.hits")
        handle.inc(first, 3)
        handle.inc(second)
        handle.inc(first)
        assert _counters(first) == {"x.hits": 4}
        assert _counters(second) == {"x.hits": 1}

    def test_the_gate_still_decides_what_is_counted(self):
        telemetry, handle = Telemetry(), BoundCounter("x.hits")
        telemetry.disable()
        handle.inc(telemetry)
        assert _counters(telemetry) == {}
        telemetry.enabled = True
        handle.inc(telemetry)
        telemetry.disable()
        handle.inc(telemetry, 50)
        assert _counters(telemetry) == {"x.hits": 1}


def _two_way_pair(batching):
    """A pair whose consumer end could drive: the safe-time protocol
    runs, so requests, stalls, piggybacked and pushed grants all occur."""
    cosim = build(streaming_pair_spec(60, 1.0), batching=batching)
    cosim.component("consumer").port("in").direction = PortDirection.INOUT
    return cosim


def _protocol_facts(cosim):
    """The same seven quantities from fields the protocol keeps itself."""
    clients = [client for node in cosim.nodes.values()
               for client in node.clients.values()]
    return {
        "safetime.requests": sum(c.requests_sent for c in clients),
        "safetime.served": sum(node.safe_time.requests_served
                               for node in cosim.nodes.values()),
        "scheduler.stalls": cosim.stalls(),
    }


class TestTheSevenSites:
    def test_counters_agree_with_the_protocols_own_fields(self):
        seen = set()
        for batching in (False, True):
            cosim = _two_way_pair(batching)
            cosim.run()
            counters = _counters(cosim.telemetry)
            for name, value in _protocol_facts(cosim).items():
                assert counters.get(name, 0) == value, (name, batching)
            seen.update(name for name in SITES if counters.get(name))
        assert seen == set(SITES)       # every site really was exercised

    def test_no_site_creates_its_counter_before_its_first_increment(self):
        cosim = _two_way_pair(True)
        cosim.start()
        assert not set(SITES) & set(_counters(cosim.telemetry))
        cosim.run()
        # Batched, nothing ever needs a synchronous request.
        assert "safetime.requests" not in _counters(cosim.telemetry)
