"""Chaos experiments: seeded message faults and node crash recovery.

The acceptance bar for the fault plane: a lossy link must not change the
*result* of a co-simulation (the resilience layer hides the chaos), two
runs of the same seed must produce bit-identical fault counters, and a
mid-run node crash must either recover from the last consistent snapshot
or raise a typed :class:`NodeFailure` — per policy.
"""

import pytest

from repro.bench.workloads import compute_star_spec, streaming_pair_spec
from repro.core import (
    Advance,
    ConfigurationError,
    FunctionComponent,
    NodeFailure,
    Receive,
    Send,
)
from repro.distributed import CoSimulation, build as build_spec
from repro.faults import FaultPlan, LinkFaults, NodeCrash, Partition
from repro.observability import TraceKind

VALUES = list(range(12))


def producer(values, period=1.0):
    def behave(comp):
        for value in values:
            yield Advance(period)
            yield Send("out", value)
    return behave


def collector(sink, count):
    """Collects into component state (rolled back correctly on restore)
    and mirrors the final result into ``sink`` when done."""
    def behave(comp):
        comp.collected = []
        for __ in range(count):
            t, v = yield Receive("in")
            comp.collected.append((t, v))
        sink.extend(comp.collected)
    return behave


def build(sink, *, values=VALUES, **cosim_kwargs):
    cosim = CoSimulation(**cosim_kwargs)
    ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
    ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")
    prod = FunctionComponent("prod", producer(values), ports={"out": "out"})
    cons = FunctionComponent("cons", collector(sink, len(values)),
                             ports={"in": "in"})
    ss_a.add(prod)
    ss_b.add(cons)
    channel = cosim.connect(ss_a, ss_b)
    channel.split_net(ss_a.wire("link", prod.port("out")),
                      ss_b.wire("link", cons.port("in")))
    return cosim


def fault_free_reference():
    sink = []
    build(sink).run()
    return sink


CHAOS = LinkFaults(drop=0.15, duplicate=0.1, delay=0.1, delay_ticks=2)


class TestMessageChaos:
    def test_lossy_link_does_not_change_the_result(self):
        """Drops are retried, duplicates deduplicated, delays released:
        the consumer must see exactly the fault-free sequence."""
        sink = []
        cosim = build(sink, fault_plan=FaultPlan(
            seed=42, default=CHAOS))
        cosim.run()
        assert sink == fault_free_reference()
        counts = cosim.fault_injector.summary()
        assert counts["fault.drops"] > 0
        assert counts["retry.attempts"] == counts["fault.drops"]

    def test_same_seed_gives_identical_counters(self):
        def one_run():
            sink = []
            cosim = build(sink, fault_plan=FaultPlan(seed=7, default=CHAOS))
            cosim.run()
            return sink, cosim.fault_injector.summary()

        first_sink, first_counts = one_run()
        second_sink, second_counts = one_run()
        assert first_sink == second_sink
        assert first_counts == second_counts
        assert first_counts            # the chaos actually happened

    def test_different_seeds_give_different_chaos(self):
        def counters(seed):
            sink = []
            cosim = build(sink, fault_plan=FaultPlan(
                seed=seed, default=CHAOS))
            cosim.run()
            return cosim.fault_injector.summary()

        assert counters(1) != counters(2)

    def test_partition_covering_traffic_is_a_typed_failure(self):
        """Partition decisions are keyed by the message's *virtual*
        timestamp, which retries cannot change — a window covering live
        traffic exhausts the retry budget and surfaces as the peer being
        presumed dead, not as a raw ConnectionError."""
        sink = []
        cosim = build(sink, fault_plan=FaultPlan(
            seed=3, partitions=(Partition("na", "nb", start=2.0, stop=2.5),)),
            failure_policy="raise")
        with pytest.raises(NodeFailure):
            cosim.run()
        assert cosim.fault_injector.summary()["fault.partition_drops"] > 0

    def test_report_carries_fault_counters(self):
        sink = []
        cosim = build(sink, fault_plan=FaultPlan(seed=42, default=CHAOS))
        cosim.run()
        report = cosim.report(title="chaos")
        assert report.faults == cosim.fault_injector.summary()
        assert "fault.drops" in report.to_dict()["faults"]
        assert "fault/retry" in report.render()

    def test_invalid_failure_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            CoSimulation(failure_policy="panic")


class TestNodeCrashRecovery:
    def test_crash_recovers_from_last_snapshot_and_finishes(self):
        sink = []
        cosim = build(sink, snapshot_interval=3.0,
                      fault_plan=FaultPlan(
                          seed=0, crashes=(NodeCrash("nb", at_time=5.0),)),
                      failure_policy="recover")
        cosim.run()
        assert sink == fault_free_reference()
        counts = cosim.fault_injector.summary()
        report = cosim.report()
        assert report.counter("fault.node_crashes") == 1
        assert report.counter("fault.node_recoveries") == 1
        # recovered at the crash instant: nothing was sent into the void
        assert "fault.messages_lost" not in counts

    def test_crash_with_recovery_disabled_raises_typed_failure(self):
        sink = []
        cosim = build(sink, snapshot_interval=3.0,
                      fault_plan=FaultPlan(
                          seed=0, crashes=(NodeCrash("nb", at_time=5.0),)),
                      failure_policy="raise")
        with pytest.raises(NodeFailure) as err:
            cosim.run()
        assert err.value.node == "nb"

    def test_recovery_without_interval_falls_back_to_baseline(self):
        """Even without periodic snapshots, a recovery-policy run takes a
        baseline snapshot at start() — the crash rewinds to t=0 and the
        whole run replays."""
        sink = []
        cosim = build(sink, fault_plan=FaultPlan(
            seed=0, crashes=(NodeCrash("nb", at_time=5.0),)),
            failure_policy="recover")
        cosim.run()
        assert sink == fault_free_reference()
        assert cosim.report().counter("fault.node_recoveries") == 1

    def test_crash_of_unknown_node_rejected(self):
        """Refused before anything runs — also when the crash would only
        fire after the run has ended, where it used to be ignored."""
        for at_time in (1.0, 1e9):
            sink = []
            cosim = build(sink, fault_plan=FaultPlan(
                seed=0, crashes=(NodeCrash("ghost", at_time=at_time),)))
            with pytest.raises(ConfigurationError, match="ghost"):
                cosim.run()
            assert cosim.report().counter("scheduler.dispatched") == 0

    def test_a_producer_crash_rewinds_to_its_cut_and_finishes(self):
        """The sending side is lost, not the receiving one: it restarts
        from the last cut and the consumer still sees every value."""
        sink = []
        cosim = build(sink, snapshot_interval=3.0,
                      fault_plan=FaultPlan(
                          seed=0, crashes=(NodeCrash("na", at_time=5.0),)),
                      failure_policy="recover")
        cosim.run()
        assert sink == fault_free_reference()
        report = cosim.report()
        assert report.counter("fault.node_crashes") == 1
        assert report.counter("fault.node_recoveries") == 1
        assert [(r["kind"], r["subject"], r["time"])
                for r in report.trace_records
                if r["kind"] in (TraceKind.NODE_CRASH,
                                 TraceKind.NODE_RECOVER)] == [
            (TraceKind.NODE_CRASH, "na", 5.0),
            (TraceKind.NODE_RECOVER, "na", 3.0)]
        assert cosim.subsystem("sa").now == cosim.subsystem("sb").now == 12.0

    @pytest.mark.parametrize("batching", [True, False])
    @pytest.mark.parametrize("interval", [0.5, 1.0, 2.0])
    def test_recovery_under_periodic_snapshots_ends_as_crash_free(
            self, interval, batching):
        """A worker lost mid-run restarts from the latest periodic cut:
        every subsystem ends where the crash-free run ends, whatever the
        interval, and later cuts again cover all three subsystems."""
        def star(**kwargs):
            cosim = build_spec(compute_star_spec(2, 6, words=50),
                               batching=batching, **kwargs)
            cosim.run()
            return cosim

        def rows(cosim):
            return sorted((row["name"], row["time"], row["dispatched"])
                          for row in cosim.report().subsystems)

        cosim = star(snapshot_interval=interval, fault_plan=FaultPlan(
            seed=3, crashes=(NodeCrash("n-w0", at_time=1.25),)),
            failure_policy="recover")
        assert rows(cosim) == rows(star()) \
            == [("hub", 9.0, 24), ("w0", 8.75, 12), ("w1", 8.75, 12)]
        assert cosim.report().counter("fault.node_recoveries") == 1
        assert sorted(cosim.registry.completed()[-1].cuts) \
            == ["hub", "w0", "w1"]

    @pytest.mark.parametrize("policy", ["raise", "recover"])
    def test_a_crash_beyond_until_waits_for_the_run_that_reaches_it(
            self, policy):
        """A run stopped at ``until`` never fires a crash scheduled after
        it; the run that continues past the instant does."""
        sink = []
        cosim = build(sink, fault_plan=FaultPlan(
            seed=0, crashes=(NodeCrash("nb", at_time=6.5),)),
            failure_policy=policy)
        cosim.run(until=6.0)
        assert cosim.report().counter("fault.node_crashes") == 0
        assert cosim.subsystem("sb").now == 6.0
        if policy == "raise":
            with pytest.raises(NodeFailure) as err:
                cosim.run()
            assert err.value.node == "nb"
        else:
            cosim.run()
            assert sink == fault_free_reference()
        assert [(r["subject"], r["time"])
                for r in cosim.report().trace_records
                if r["kind"] == TraceKind.NODE_CRASH] == [("nb", 6.0)]

    def test_a_threaded_crash_beyond_until_waits_too(self):
        spec = streaming_pair_spec(12, 1.0)
        cosim = build_spec(spec, "threaded", fault_plan=FaultPlan(
            seed=0, crashes=(NodeCrash("n-cons", at_time=6.5),)))
        cosim.run(until=6.0)
        assert cosim.report().counter("fault.node_crashes") == 0
        with pytest.raises(NodeFailure) as err:
            cosim.run()
        assert err.value.node == "n-cons"

    def test_restore_keeps_the_cut_cadence(self):
        """A manual restore() rewinds the periodic cadence as the two
        recovery rollbacks do: the first cut after restoring the t=2 cut
        falls at 3, not one interval after the last cut before it (7),
        so a later crash does not rewind further than it must."""
        cosim = build([], snapshot_interval=1.0)
        cosim.run(until=6.0)
        before = {snap.max_time(): snapshot_id for snapshot_id, snap
                  in cosim.registry.snapshots.items()}
        assert sorted(before) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        cosim.restore(before[2.0])
        cosim.run()
        assert [snap.max_time() for snapshot_id, snap
                in cosim.registry.snapshots.items()
                if snapshot_id not in before.values()] \
            == [float(t) for t in range(3, 13)]

    def test_a_second_run_in_one_process_reports_alike(self):
        """Snapshot ids are numbered per run, so a mark's bytes — and the
        link rows and counters they feed — do not depend on how many
        cuts earlier runs in this process took."""
        def run():
            cosim = build([], snapshot_interval=1.0, fault_plan=FaultPlan(
                seed=4, default=LinkFaults(drop=0.1),
                crashes=(NodeCrash("nb", at_time=6.0),)),
                failure_policy="recover")
            cosim.run()
            return list(cosim.registry.snapshots), cosim.report().to_dict()

        (first_ids, first), (second_ids, second) = run(), run()
        assert first_ids == second_ids and len(first_ids) >= 10
        assert first["links"] == second["links"]
        assert first["counters"] == second["counters"]

    def test_crash_and_chaos_combined(self):
        """Message faults and a crash in one plan: still converges."""
        sink = []
        cosim = build(sink, snapshot_interval=3.0,
                      fault_plan=FaultPlan(
                          seed=11, default=LinkFaults(drop=0.1),
                          crashes=(NodeCrash("nb", at_time=6.0),)),
                      failure_policy="recover")
        cosim.run()
        assert sink == fault_free_reference()
