"""Determinism of the batched fast path under seeded faults.

The acceptance bar for batching (ISSUE 3): coalescing frames must be
*invisible* to the fault plane.  The injector rolls its decision per
logical message, in original send order, so a seeded chaos run must
produce the same results AND the same fault counters whether batching is
on or off — on both transports.

Delay faults are deliberately absent from these plans: ``delay_ticks``
counts destination *poll* calls, and the poll cadence legitimately
differs between the batched and unbatched pipelines (batching exists to
change when things hit the wire).  Drop / duplicate / reorder decisions
are rolled at send time against per-link ordinals and are cadence-free.
"""

import pytest

from repro.bench.workloads import ring_of_pairs_spec
from repro.distributed import ThreadedCoSimulation, build as build_spec
from repro.faults import FaultPlan, LinkFaults
from repro.transport import TcpTransport

from .test_chaos import build, fault_free_reference

#: Same rates as test_chaos.CHAOS minus the delay component (see module
#: docstring for why delay ticks are excluded here).
CHAOS_NO_DELAY = LinkFaults(drop=0.15, duplicate=0.1, reorder=0.1)


def _run(batching, *, seed=42, faults=CHAOS_NO_DELAY):
    sink = []
    cosim = build(sink, fault_plan=FaultPlan(seed=seed, default=faults),
                  batching=batching)
    cosim.run()
    report = cosim.report(title="batch-chaos")
    return sink, cosim.fault_injector.summary(), report


def _progress(report):
    return sorted((row["name"], row["time"], row["dispatched"])
                  for row in report.subsystems)


class TestBatchedChaosEquivalence:
    def test_same_seed_same_results_batching_on_and_off(self):
        base_sink, base_faults, __ = _run(False)
        batch_sink, batch_faults, __ = _run(True)
        assert batch_sink == base_sink == fault_free_reference()
        assert batch_faults == base_faults
        assert base_faults["fault.drops"] > 0       # chaos actually ran

    @pytest.mark.parametrize("seed", [1, 7, 99])
    def test_fault_decisions_identical_across_seeds(self, seed):
        """Per-link ordinals drive the plan's hash stream; batching must
        not perturb them for any seed."""
        __, base_faults, __ = _run(False, seed=seed)
        __, batch_faults, __ = _run(True, seed=seed)
        assert batch_faults == base_faults

    def test_batched_chaos_run_is_replayable(self):
        first = _run(True, seed=5)
        second = _run(True, seed=5)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_event_counts_and_times_match_unbatched(self):
        """Beyond the sink: virtual times and dispatched-event counts of
        every subsystem must be bit-identical between the two modes."""
        __, __, base_report = _run(False)
        __, __, batch_report = _run(True)
        assert _progress(batch_report) == _progress(base_report)

    def test_batching_sends_fewer_frames_under_chaos(self):
        __, __, base_report = _run(False)
        __, __, batch_report = _run(True)
        assert batch_report.link_totals()["frames"] \
            < base_report.link_totals()["frames"]

    def test_batching_sends_no_more_safe_time_requests_under_chaos(self):
        __, __, base_report = _run(False)
        __, __, batch_report = _run(True)
        assert 0 < base_report.counter("safetime.requests")
        assert batch_report.counter("safetime.requests") \
            <= base_report.counter("safetime.requests")

    def test_duplicates_still_deduplicated_when_coalesced(self):
        """A duplicate-heavy plan queues the copy in the same frame; the
        poll-side suppressor must still drop it."""
        sink, faults, __ = _run(True, faults=LinkFaults(duplicate=0.4))
        assert sink == fault_free_reference()
        assert faults["fault.duplicates"] > 0


class TestBatchedRingFaultFree:
    """The same three legs without faults on the Fig. 4 shape: a chain of
    three-plus subsystems, the inner ones consulting two peers each.  The
    (frames, bytes, safe-time requests) triples are recorded constants,
    so the native and the ``PIA_PURE=1`` suite runs are held to the same
    wire behaviour in both batching modes.  (Every link of the chain is
    one-way, so each stage runs in windows: a handful of requests and
    frames where the per-message protocol took hundreds.)"""

    @pytest.mark.parametrize("subsystems,messages,unbatched,batched", [
        (3, 20, (48, 2347, 4), (7, 1273, 0)),
        (4, 25, (87, 4333, 6), (10, 2303, 0)),
    ], ids=["chain-of-3", "chain-of-4"])
    def test_same_rows_fewer_frames_no_more_requests(
            self, subsystems, messages, unbatched, batched):
        def run(batching):
            cosim = build_spec(ring_of_pairs_spec(subsystems, messages),
                               batching=batching)
            cosim.run()
            report = cosim.report(title="batch-ring")
            totals = report.link_totals()
            return _progress(report), (totals["frames"], totals["bytes"],
                                       report.counter("safetime.requests"))

        base_rows, base_wire = run(False)
        batch_rows, batch_wire = run(True)
        assert batch_rows == base_rows and len(base_rows) == subsystems
        assert (base_wire, batch_wire) == (unbatched, batched)
        assert batch_wire[0] < base_wire[0]        # strictly fewer frames
        assert batch_wire[2] <= base_wire[2]       # no more requests


class TestBatchedChaosOverTcp:
    """Same bar over real sockets and the threaded executor."""

    VALUES = list(range(10))

    def _run_tcp(self, batching, *, seed=21):
        from ..transport.test_tcp_failures import _build_pipeline
        with TcpTransport() as transport:
            runner = ThreadedCoSimulation(
                transport=transport, batching=batching,
                fault_plan=FaultPlan(seed=seed,
                                     default=LinkFaults(drop=0.15,
                                                        duplicate=0.1)))
            cons = _build_pipeline(runner, self.VALUES)
            runner.run(timeout=60.0)
            return list(cons.got), runner.fault_injector.summary()

    def test_same_seed_same_results_batching_on_and_off(self):
        base_got, base_faults = self._run_tcp(False)
        batch_got, batch_faults = self._run_tcp(True)
        assert batch_got == base_got
        assert [v for __, v in batch_got] == self.VALUES
        assert batch_faults == base_faults
        assert base_faults["fault.drops"] > 0
