"""Chaos experiments: seeded message faults and node crash recovery.

The acceptance bar for the fault plane: a lossy link must not change the
*result* of a co-simulation (the resilience layer hides the chaos), two
runs of the same seed must produce bit-identical fault counters, and a
mid-run node crash must either recover from the last consistent snapshot,
raise a typed :class:`NodeFailure`, or drop the node — per policy.
"""

import pytest

from repro.bench.workloads import compute_star_spec
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

    def test_drop_node_lets_survivors_finish(self):
        """Graceful degradation: the producer node dies and is cut out;
        the consumer side ends cleanly without its remaining input."""
        sink = []
        cosim = build(sink, fault_plan=FaultPlan(
            seed=0, crashes=(NodeCrash("na", at_time=5.0),)),
            failure_policy="drop-node")
        cosim.run()
        # the producer died mid-stream: only a prefix arrived, mirrored
        # into component state (the run ended before the count was hit).
        cons = cosim.component("cons")
        got = [v for __, v in cons.collected]
        assert got == VALUES[:len(got)]
        assert len(got) < len(VALUES)
        report = cosim.report()
        assert report.counter("fault.nodes_dropped") == 1
        # the dropped node's subsystem stands still at the crash instant,
        # cut off from its peer
        assert [(r["subject"], r["time"]) for r in report.trace_records
                if r["kind"] == TraceKind.NODE_DROP] == [("na", 5.0)]
        producer = cosim.subsystem("sa")
        assert producer.now == 5.0
        assert all(endpoint.severed
                   for endpoint in producer.channels.values())

    @pytest.mark.parametrize("batching", [True, False])
    @pytest.mark.parametrize("interval", [0.5, 1.0, 2.0])
    def test_drop_node_keeps_taking_periodic_snapshots(self, interval,
                                                       batching):
        """A periodic snapshot after a drop expects only the survivors:
        it completes, and the run ends as it does without snapshots."""
        def star(**kwargs):
            cosim = build_spec(
                compute_star_spec(2, 6, words=50), batching=batching,
                fault_plan=FaultPlan(
                    seed=3, crashes=(NodeCrash("n-w0", at_time=1.25),)),
                failure_policy="drop-node", **kwargs)
            cosim.run()
            return cosim

        def rows(cosim):
            return sorted((row["name"], row["time"], row["dispatched"])
                          for row in cosim.report().subsystems)

        cosim = star(snapshot_interval=interval)
        assert rows(cosim) == rows(star()) \
            == [("hub", 3.0, 7), ("w0", 1.25, 2), ("w1", 2.75, 4)]
        assert sorted(cosim.registry.completed()[-1].cuts) == ["hub", "w1"]

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
