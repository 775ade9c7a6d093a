"""Causal-trace propagation under chaos: the PR 5 acceptance properties.

Same-seed runs — with drops, duplicates, delays, reorders and retries in
play, batching on and off, under all three executors — must yield
causally *consistent* chains: every span-linked ``MSG_RECV`` pairs with
a recorded ``MSG_SEND``, every suppressed duplicate carries the original
send's span, parents resolve, and the chain roots and hops derived from
them agree with every parent pointer.  On the fault-free workload the
guarantee is stronger: span populations and the stall-attribution table
are bit-identical across deployment modes.
"""

import pytest

from repro.bench.workloads import compute_star, compute_star_multiprocess
from repro.faults import FaultPlan, LinkFaults, RetryPolicy
from repro.observability import Telemetry, causal_chains, span_name

CHAOS = dict(seed=0, default=LinkFaults(drop=0.12, duplicate=0.15,
                                        delay=0.12, delay_ticks=2,
                                        reorder=0.1))
FAST_RETRY = dict(max_attempts=8, base_delay=0.0005, max_delay=0.002,
                  jitter=0.0)

#: Large enough that no ring-buffer eviction occurs on the small star —
#: eviction would make cross-executor trace comparison meaningless.
CAPACITY = 65536


def chaos_kwargs():
    return dict(fault_plan=FaultPlan(**CHAOS),
                retry_policy=RetryPolicy(**FAST_RETRY))


def run_star(executor, *, batching=False, chaos=True, rounds=6):
    kwargs = chaos_kwargs() if chaos else {}
    if executor in ("multiprocess", "multiprocess_shm"):
        if executor == "multiprocess_shm":
            kwargs["transport"] = "shm"
        cosim = compute_star_multiprocess(
            2, rounds, words=50,
            telemetry=Telemetry(trace_capacity=CAPACITY), **kwargs)
        cosim.run(until=100.0, timeout=90.0)
        cosim.close()
    else:
        cosim = compute_star(2, rounds, words=50, executor=executor,
                             batching=batching,
                             telemetry=Telemetry(trace_capacity=CAPACITY),
                             **kwargs)
        cosim.run(until=100.0)
    return cosim.report()


def assert_derived_fields(chains):
    """Every derived hop is its parent's plus one and every root is its
    own trace id (a chain's members share their root's)."""
    sends, hops, trace_ids = \
        chains["sends"], chains["hops"], chains["trace_ids"]
    assert set(hops) == set(trace_ids) == set(sends)
    for name, record in sends.items():
        parent = record["parent"]
        if parent is None:
            assert (trace_ids[name], hops[name]) == (name, 0)
        else:
            parent = span_name(parent)
            assert hops[name] == hops[parent] + 1
            assert trace_ids[name] == trace_ids[parent]
        assert sends[trace_ids[name]]["parent"] is None
    assert chains["max_hop"] == max(hops.values())


def assert_causally_consistent(report):
    chains = causal_chains(report.trace_records)
    assert chains["sends"], "no causally linked sends recorded"
    assert chains["orphan_receives"] == [], \
        f"orphan receives: {chains['orphan_receives'][:3]}"
    assert chains["broken_parents"] == [], \
        f"broken parents: {chains['broken_parents'][:3]}"
    assert_derived_fields(chains)
    return chains


class TestChainConsistency:
    @pytest.mark.parametrize("executor", ["cosim", "threaded"])
    @pytest.mark.parametrize("batching", [False, True])
    def test_single_process_chaos_chains_link(self, executor, batching):
        report = run_star(executor, batching=batching)
        chains = assert_causally_consistent(report)
        assert chains["max_hop"] > 0

    @pytest.mark.parametrize("executor", ["multiprocess",
                                          "multiprocess_shm"])
    def test_multiprocess_chaos_chains_link(self, executor):
        report = run_star(executor)
        assert_causally_consistent(report)

    def test_duplicates_share_the_sends_span(self):
        report = run_star("cosim")
        chains = assert_causally_consistent(report)
        suppressed = [r for r in report.trace_records
                      if r.get("action") == "duplicate-suppressed"]
        assert report.faults.get("fault.duplicates", 0) > 0
        assert suppressed, "chaos injected duplicates but none suppressed"
        for record in suppressed:
            assert span_name(record["span"]) in chains["sends"], record

    def test_clean_run_has_no_fault_records_but_links(self):
        report = run_star("cosim", chaos=False)
        assert_causally_consistent(report)
        assert not [r for r in report.trace_records
                    if r["kind"] == "fault-inject"]


class TestCrossExecutorDeterminism:
    """Determinism properties hold on the deterministic workload (no
    fault plane): with chaos injected, *delivery order* of same-virtual-
    time messages is executor-pacing-dependent (delay ticks are released
    at polls), so causal edges legitimately differ even though final
    state and fault counters match — chaos runs are covered by the chain
    *consistency* tests above instead."""

    def test_attribution_bit_identical_across_executors(self):
        """The tentpole acceptance criterion: the stall-attribution table
        is a pure function of the deterministic dispatch sequence, so
        cooperative, threaded and multiprocess runs of the same scenario
        must agree byte for byte."""
        coop = run_star("cosim", chaos=False)
        threaded = run_star("threaded", chaos=False)
        multiprocess = run_star("multiprocess", chaos=False)
        shm = run_star("multiprocess_shm", chaos=False)
        assert coop.stall_attribution == threaded.stall_attribution
        assert coop.stall_attribution == multiprocess.stall_attribution
        assert coop.stall_attribution == shm.stall_attribution
        assert coop.stall_attribution, "attribution table is empty"
        criticals = [row for row in coop.stall_attribution
                     if row["critical"]]
        assert criticals, "no critical peer flagged"

    def test_attribution_invariant_under_batching(self):
        off = run_star("cosim", batching=False, chaos=False)
        on = run_star("cosim", batching=True, chaos=False)
        assert off.stall_attribution == on.stall_attribution

    def test_span_populations_identical_across_executors(self):
        """Every executor mints the same spans: the same messages cross
        the same links, so the sorted span list per origin node matches.
        (Exact parent edges at a two-input merge point may differ — two
        same-stamp arrivals dispatch in pacing-dependent order — which is
        why the comparison is span populations, not parent edges, and
        why attribution aggregates per instant.)"""
        def spans(report):
            return sorted(r["span"] for r in report.trace_records
                          if r["kind"] == "msg-send" and "span" in r)
        coop = run_star("cosim", chaos=False)
        threaded = run_star("threaded", chaos=False)
        multiprocess = run_star("multiprocess", chaos=False)
        shm = run_star("multiprocess_shm", chaos=False)
        assert spans(coop) == spans(threaded) == spans(multiprocess)
        assert spans(multiprocess) == spans(shm)
        assert spans(coop), "no spans minted"
