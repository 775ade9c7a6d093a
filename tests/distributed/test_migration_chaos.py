"""Migration and failover chaos: a scheduled crash under
``failure_policy="recover"`` and an explicit live migration must both
finish with simulation state bit-identical to a fault-free same-seed
run — across both transports, batching on and off.  Also unit-tests the
portable-image plumbing those moves ride on."""

import json
import os
import pickle
import signal

import pytest

from repro.bench.workloads import (
    compute_star_multiprocess,
    compute_star_spec,
    streaming_pair_spec,
)
from repro.core import (
    Advance,
    PortDirection,
    ProcessComponent,
    Receive,
    Send,
    Simulator,
)
from repro.core.checkpoint import capture, reinstate
from repro.core.errors import (
    CheckpointError,
    ConfigurationError,
    MigrationError,
)
from repro.distributed import (
    CoSimulation, MultiprocessCoSimulation, WorkerPool, build)
from repro.distributed.migration import NodeArchive
from repro.faults import FaultPlan, NodeCrash
from repro.observability import (
    TraceKind,
    chrome_trace,
    validate_chrome_trace,
)
from repro.observability.export import trace_records
from repro.observability.flight import ENV_DIR
from repro.observability.spans import causal_chains, span_name

from .test_trace_chaos import assert_derived_fields

#: Full deployment matrix the bit-identity guarantee is claimed over.
MATRIX = [("tcp", False), ("tcp", True), ("shm", False), ("shm", True)]


def star(**kwargs):
    return compute_star_multiprocess(2, 6, words=50,
                                     failure_policy="recover", **kwargs)


def long_star(**kwargs):
    """A star that takes long enough on the wall to be meddled with."""
    return compute_star_multiprocess(2, 30, words=2000,
                                     failure_policy="recover", **kwargs)


class MidRun:
    """A ``status_listener`` that calls each ``action(snapshot)`` once,
    on the first snapshot whose global time has reached its mark."""

    def __init__(self, *marks):
        self.marks = list(marks)

    def __call__(self, snapshot):
        while self.marks and snapshot["global_time"] >= self.marks[0][0]:
            self.marks.pop(0)[1](snapshot)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool() as shared:
        yield shared


def progress_rows(report):
    return sorted((row["name"], row["time"], row["dispatched"])
                  for row in report.subsystems)


def flight_dumps(directory):
    """``{tag: (header, records)}`` for every black-box dump under
    ``directory`` — each must read back through the trace tooling."""
    dumps = {}
    for path in sorted(directory.glob("pia-flight-*.jsonl")):
        header, *lines = [json.loads(line) for line
                          in path.read_text().splitlines()]
        records = trace_records(lines)
        assert validate_chrome_trace(chrome_trace(records)) == []
        dumps[header["flight"]] = (header, records)
    return dumps


# ----------------------------------------------------------------------
# crash -> supervised failover
# ----------------------------------------------------------------------

class TestFailoverBitIdentity:
    @pytest.mark.parametrize("transport,batching", MATRIX)
    def test_crash_failover_matches_fault_free_run(self, transport,
                                                   batching):
        """Kill a worker mid-run; the supervisor must elect a fresh pool
        worker, restore from the last global snapshot and finish with
        the exact per-subsystem (time, dispatched) rows of an unfailed
        same-seed run."""
        ref = star(transport=transport, batching=batching)
        dispatched_ref = ref.run(timeout=120.0)
        rows_ref = progress_rows(ref.report())

        crash = star(transport=transport, batching=batching,
                     fault_plan=FaultPlan(
                         seed=3, crashes=[NodeCrash("n-w0", at_time=2.0)]))
        dispatched_crash = crash.run(timeout=120.0)
        report = crash.report()

        assert progress_rows(report) == rows_ref
        assert dispatched_crash == dispatched_ref
        assert [m["kind"] for m in report.migrations] == ["failover"]
        record = report.migrations[0]
        assert record["node"] == "n-w0"
        assert record["reason"] == "scheduled-crash"
        assert record["epoch"] >= 1
        assert record["snapshot_bytes"] > 0

    def test_failover_replaces_the_worker_process(self):
        """The placement log must show the crashed node losing its
        worker and being adopted by a different process."""
        crash = star(fault_plan=FaultPlan(
            seed=3, crashes=[NodeCrash("n-w0", at_time=2.0)]))
        crash.run(timeout=120.0)
        events = {}
        for entry in crash.placement_log:
            events.setdefault((entry["node"], entry["event"]),
                              entry["worker"])
        assert ("n-w0", "lost") in events
        assert ("n-w0", "adopted") in events
        assert events[("n-w0", "adopted")] != events[("n-w0", "assigned")]
        # Survivors keep their original placement.
        assert ("n-hub", "lost") not in events

    def test_failover_leaves_the_black_boxes_behind(self, tmp_path,
                                                    monkeypatch):
        """The coordinator dumps its ring when it decides to fail over,
        and every surviving worker dumps its own just before the
        rollback wipes the world it describes.  (Unbatched, so the
        workers stall and have something in their rings.)"""
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        crash = star(batching=False, fault_plan=FaultPlan(
            seed=3, crashes=[NodeCrash("n-w0", at_time=4.0)]))
        crash.run(timeout=120.0)
        dumps = flight_dumps(tmp_path)
        header, records = dumps["coordinator"]
        assert header["reason"] == "failover: scheduled-crash"
        assert [(r["kind"], r["subject"], r["reason"]) for r in records] \
            == [(TraceKind.MIGRATION, "n-w0", "scheduled-crash")]
        header, records = dumps["n-hub"]
        assert header["reason"] == "restore"
        assert records[-1]["kind"] == TraceKind.CHECKPOINT_RESTORE
        assert TraceKind.STALL in {r["kind"] for r in records}
        assert "n-w0" not in dumps      # killed: it never got to dump

    def test_detector_suspicions_reported(self):
        """The heartbeat detector's verdicts surface as a report gauge
        whether or not anything died."""
        quiet = star()
        quiet.run(timeout=120.0)
        assert quiet.report().gauges.get("mp.suspicions") == 0


# ----------------------------------------------------------------------
# explicit live migration
# ----------------------------------------------------------------------

class TestLiveMigration:
    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_migrate_mid_run_is_lossless(self, transport, tmp_path,
                                         monkeypatch):
        """migrate_at() must re-splice every channel without dropping or
        duplicating in-flight messages: progress rows stay bit-identical
        and the causal trace graph has no orphan receives (a dropped or
        doubled message breaks a span chain).  The coordinator's own
        trace — the migration decision — reaches the report, and the
        move leaves its black boxes behind."""
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        ref = star(transport=transport)
        ref.run(timeout=120.0)
        rows_ref = progress_rows(ref.report())

        moved = star(transport=transport)
        moved.migrate_at("n-w1", 2.0)
        moved.run(timeout=120.0)
        report = moved.report()

        assert progress_rows(report) == rows_ref
        assert [m["kind"] for m in report.migrations] == ["migrate"]
        assert report.migrations[0]["reason"] == "requested"
        chains = causal_chains(report.trace_records)
        assert not chains["orphan_receives"], chains["orphan_receives"][:3]
        assert not chains["broken_parents"], chains["broken_parents"][:3]
        # Spans minted after the move live in the new epoch's namespace,
        # and the roots and hops derived across it agree with every
        # parent pointer.
        assert {record["span"][1] for record in chains["sends"].values()} \
            == {0, report.migrations[0]["epoch"]} == {0, 1}
        assert_derived_fields(chains)
        placements = {}
        for entry in moved.placement_log:
            placements.setdefault((entry["node"], entry["event"]),
                                  entry["worker"])
        assert ("n-w1", "released") in placements
        assert ("n-w1", "adopted") in placements
        # A migration must land on a genuinely different process.
        assert placements[("n-w1", "adopted")] != \
            placements[("n-w1", "assigned")]
        # One coordinator MIGRATION record per move, and nothing else
        # distinguishes the projection from the unmoved run's.
        assert report.trace_counts[TraceKind.MIGRATION] \
            == len(report.migrations)
        assert ref.report().trace_counts.get(TraceKind.MIGRATION) is None
        decided = [r for r in report.trace_records
                   if r["kind"] == TraceKind.MIGRATION]
        assert [(r["subject"], r["reason"], r["epoch"]) for r in decided] \
            == [("n-w1", "requested", 1)]
        timeline = chrome_trace(report)
        assert validate_chrome_trace(timeline) == []
        assert [e["args"]["reason"] for e in timeline["traceEvents"]
                if e.get("name") == TraceKind.MIGRATION] == ["requested"]
        dumps = flight_dumps(tmp_path)
        header, records = dumps["coordinator"]
        assert header["reason"] == "migrate"
        assert records == [{k: v for k, v in r.items() if k != "node"}
                           for r in decided]

    def test_a_live_move_mid_stream_loses_and_doubles_nothing(self, pool):
        """A consumer moved half-way through a 1,000-word stream: every
        word arrives once (the same dispatch counts, net posts and channel
        ledgers as the unmoved run, every component finished).  A live
        move fires only from a settled sweep — every worker idle, the
        wire counters balanced on two probes — so its cut catches nothing
        in flight and the restore replays nothing."""
        def run(move):
            cosim = build(streaming_pair_spec(1_000, 1.0), "multiprocess",
                          pool=pool, failure_policy="recover")
            if move:
                cosim.migrate_at("n-cons", 500.0)
            cosim.run(timeout=90.0)
            report = cosim.report()
            return report, (progress_rows(report), report.components,
                            report.nets, report.interfaces,
                            [(row["name"], row["forwarded"], row["injected"])
                             for row in report.channels])

        __, unmoved = run(move=False)
        report, moved = run(move=True)
        assert moved == unmoved
        assert [row["posts"] for row in unmoved[2]] == [1_000, 1_000]
        assert [row[1:] for row in unmoved[4]] == [(0, 1_000), (1_000, 0)]
        assert {row["status"] for row in unmoved[1]} == {"finished"}
        (record,) = report.migrations
        assert (record["kind"], record["node"], record["at_global_time"]) \
            == ("migrate", "n-cons", 500.0)
        assert record["replayed_messages"] == 0
        assert report.counter("migration.replayed_messages") == 0

    def test_migrate_requires_recover_policy(self):
        plain = compute_star_multiprocess(2, 3, words=20)
        with pytest.raises(ConfigurationError):
            plain.migrate_at("n-w0", float("-inf"))

    def test_migrate_unknown_node_rejected(self):
        cosim = star()
        with pytest.raises(ConfigurationError):
            cosim.migrate_at("n-missing", float("-inf"))

    @pytest.mark.parametrize("policy", ["migrate", "drop-node"])
    def test_a_process_deployment_refuses_the_policy(self, policy):
        """One vocabulary: the old multiprocess spelling and the old
        cooperative-only drop are refused, not mapped, by both executors
        that take a policy — with one text."""
        for executor in (CoSimulation, MultiprocessCoSimulation):
            with pytest.raises(ConfigurationError) as refused:
                executor(failure_policy=policy)
            assert str(refused.value) == (
                f"failure policy {policy!r} is not one of ('recover', "
                "'raise'): CoSimulation and MultiprocessCoSimulation "
                "restart a lost node from the last cut ('recover') or "
                "raise ('raise'); ThreadedCoSimulation always raises")

    @pytest.mark.parametrize("policy", ["recover", "raise"])
    def test_both_executors_take_each_policy(self, policy):
        """The two policies left are the two both executors carry out."""
        for executor in (CoSimulation, MultiprocessCoSimulation):
            assert executor(failure_policy=policy).failure_policy == policy

    def test_one_policy_tuple_is_exported(self):
        import repro.distributed as distributed
        assert distributed.FAILURE_POLICIES == ("recover", "raise")
        assert not hasattr(distributed, "MP_FAILURE_POLICIES")
        assert "MP_FAILURE_POLICIES" not in distributed.__all__


    def test_migrate_called_mid_run_is_lossless(self, pool):
        """``migrate_at(node, -inf)`` from a status listener while the run
        is in flight: every worker is held where it stands, the node
        moves, nothing is lost."""
        ref = long_star(pool=pool)
        ref.run(timeout=120.0)
        moved = long_star(pool=pool)
        moved.run(timeout=120.0, status_interval=0.0, status_listener=MidRun(
            (3.0, lambda __: moved.migrate_at("n-w1", float("-inf")))))
        assert [(m.kind, m.node, m.reason) for m in moved.migrations] \
            == [("migrate", "n-w1", "requested")]
        assert 3.0 <= moved.migrations[0].at_global_time < 30.0
        assert progress_rows(moved.report()) == progress_rows(ref.report())

    def test_a_request_for_an_earlier_instant_arrives_mid_run(self, pool):
        """A migration asked for at 10.0 mid-run, and later one for 5.0 —
        long passed.  The first happens at its instant (where it would
        have, asked before the run), the second at once.

        Each request must reach the run before it passes the instant the
        assertions need, whatever the host's load: a ``"gate"`` entry
        (a kind no executor serves) holds the workers — at 2.75 for the
        gate at 3.0, at 14.75 for the one at 16.0 — until the listener
        has filed the request and lifted it."""
        ahead = long_star(pool=pool)
        ahead.migrate_at("n-w1", 10.0)
        ahead.migrate_at("n-w0", 20.0)
        ahead.run(timeout=120.0)
        at_10, at_20 = [m.at_global_time for m in ahead.migrations]
        assert at_10 <= 10.0 < at_20 <= 20.0

        late = long_star(pool=pool)
        late.migrate_at("n-w0", 20.0)
        for gate in (3.0, 16.0):
            late.schedule.add(gate, "gate")

        def request(node, at_time, gate):
            def act(__):
                late.migrate_at(node, at_time)
                for __ in late.schedule.take_due(lambda at: at <= gate,
                                                 ("gate",)):
                    pass    # a gate taken leaves the schedule
            return act

        late.run(timeout=120.0, status_interval=0.0, status_listener=MidRun(
            (2.0, request("n-w1", 10.0, 3.0)),
            (14.0, request("n-w1", 5.0, 16.0))))
        moves = [(m.node, m.at_global_time) for m in late.migrations]
        assert [node for node, __ in moves] == ["n-w1", "n-w1", "n-w0"]
        assert moves[0] == ("n-w1", at_10) and moves[2] == ("n-w0", at_20)
        assert 14.0 <= moves[1][1] < at_20
        assert progress_rows(late.report()) == progress_rows(ahead.report())

    def test_crash_and_migration_owed_at_one_instant(self, pool):
        """Both happen, once each, the crash first; the migration waits
        for the rolled-back run to get to the instant again."""
        ref = star(pool=pool)
        ref.run(timeout=120.0)
        both = star(pool=pool, fault_plan=FaultPlan(
            seed=3, crashes=[NodeCrash("n-w0", at_time=2.0)]))
        both.migrate_at("n-w1", 2.0)
        both.run(timeout=120.0)
        assert [(m.kind, m.node, m.at_global_time) for m in both.migrations] \
            == [("failover", "n-w0", 1.25), ("migrate", "n-w1", 1.25)]
        assert progress_rows(both.report()) == progress_rows(ref.report())


# ----------------------------------------------------------------------
# workers that really die: noticed on a receive, on a send, mid-relocation
# ----------------------------------------------------------------------

def sigkill(worker):
    """Kill a pool worker's process the hard way and wait for the OS to
    close its end of the control pipe."""
    os.kill(worker.proc.pid, signal.SIGKILL)
    worker.proc.join(5.0)


class Saboteur(MultiprocessCoSimulation):
    """SIGKILLs ``victim``'s worker in the middle of the first
    relocation, just as the re-splice begins."""

    victim = None

    def _resplice(self, moved, pipes, procs):
        victim, self.victim = self.victim, None
        if victim is not None:
            sigkill(procs[victim])
        super()._resplice(moved, pipes, procs)


class TestWorkerDeath:
    def test_sigkill_mid_run_fails_over(self, pool):
        """A killed worker's pipe *resets* (it does not read EOF), on
        the receive or on the next send: either is that node's death,
        not a raw ``OSError`` out of ``run()``."""
        ref = long_star(pool=pool)
        ref.run(timeout=120.0)

        def kill_w0(snapshot):
            os.kill([entry["pid"] for entry in snapshot["placement"]
                     if entry["node"] == "n-w0"][-1], signal.SIGKILL)
        killed = long_star(pool=pool)
        killed.run(timeout=120.0, status_interval=0.0,
                   status_listener=MidRun((3.0, kill_w0)))
        assert [(m.kind, m.node, m.reason) for m in killed.migrations] \
            == [("failover", "n-w0", "worker-death")]
        assert progress_rows(killed.report()) == progress_rows(ref.report())

    @pytest.mark.parametrize("victim,crash,expected", [
        ("n-hub", None, ["n-hub", "n-w1"]),
        ("n-w1", None, ["n-w1"]),
        ("n-hub", "n-w0", ["n-hub", "n-w0"]),
    ], ids=["survivor-during-migration", "moved-node-during-migration",
            "survivor-during-failover"])
    def test_death_during_a_relocation_is_folded_in(self, pool, victim,
                                                    crash, expected):
        """The cascade: whoever dies while a relocation is under way —
        noticed on a control *send* as often as on a receive — joins it
        and the round restarts; a live move it interrupts becomes a
        failover of everything it had in flight."""
        ref = star(pool=pool)
        ref.run(timeout=120.0)
        plan = None if crash is None else FaultPlan(
            seed=3, crashes=[NodeCrash(crash, at_time=3.0)])
        run = Saboteur(failure_policy="recover", pool=pool, fault_plan=plan
                       ).load(compute_star_spec(2, 6, words=50))
        run.victim = victim
        if crash is None:
            run.migrate_at("n-w1", 3.0)
        run.run(timeout=120.0)
        assert run.victim is None
        assert [(m.kind, m.node, m.reason) for m in run.migrations] \
            == [("failover", node, "worker-death") for node in expected]
        assert progress_rows(run.report()) == progress_rows(ref.report())


# ----------------------------------------------------------------------
# portable checkpoint images (unit level)
# ----------------------------------------------------------------------

class _Ticker(ProcessComponent):
    def __init__(self, name, count=10):
        super().__init__(name)
        self.count = count
        self.add_port("out", PortDirection.OUT)

    def run(self):
        for index in range(self.count):
            yield Advance(1.0)
            yield Send("out", index)


class _Accumulator(ProcessComponent):
    def __init__(self, name):
        super().__init__(name)
        self.seen = []
        self.add_port("in", PortDirection.IN)

    def run(self):
        while True:
            t, value = yield Receive("in")
            self.seen.append((t, value))


def build_sim():
    sim = Simulator()
    ticker = sim.add(_Ticker("ticker"))
    acc = sim.add(_Accumulator("acc"))
    sim.wire("n", ticker.port("out"), acc.port("in"))
    return sim, acc


class TestPortableImages:
    def test_pickle_round_trip_resumes_identically(self):
        """capture -> pickle -> reinstate into a *freshly built* subsystem
        (the adopting worker's situation) must resume to the same final
        state as the original."""
        sim, acc = build_sim()
        sim.run(until=3.0)
        image = capture(sim.subsystem, 1, "cut")
        clone = pickle.loads(pickle.dumps(image))
        assert NodeArchive(node="n", snapshot_id="s",
                           cuts={"main": (clone, {})}).storage_bytes() > 0
        assert clone.time == 3.0

        fresh, fresh_acc = build_sim()
        reinstate(fresh.subsystem, clone)
        fresh.run()
        sim.run()
        assert fresh_acc.seen == acc.seen
        assert fresh.now == sim.now

    def test_image_for_wrong_subsystem_rejected(self):
        sim, __ = build_sim()
        sim.run(until=2.0)
        image = capture(sim.subsystem, 1, "cut")
        image.subsystem = "someone-else"
        with pytest.raises(CheckpointError, match="someone-else"):
            reinstate(sim.subsystem, image)

    @pytest.mark.parametrize("unnamed", ["control", "orphan-port"])
    def test_an_unnamed_target_restores_here_and_refuses_to_travel(
            self, unnamed):
        """A queued ``CONTROL`` callable or orphan port has no name: the
        cut still rolls back in process, and ``archive_node`` — the one
        portability check — refuses it with a typed error."""
        from repro.core import Event, EventKind, Timestamp
        from repro.core.port import Port
        from repro.distributed import archive_node

        from .test_snapshot_optimistic import two_subsystem_system

        sink = []
        cosim = two_subsystem_system([9, 8, 7], sink)
        fired = []
        if unnamed == "control":
            event = Event(Timestamp(2.5), EventKind.CONTROL,
                          lambda evt: fired.append(evt.time))
        else:
            event = Event(Timestamp(50.0), EventKind.SIGNAL,
                          Port("loose", PortDirection.IN), payload=0)
        cosim.start()
        cosim.subsystem("sb").scheduler.schedule(event)
        snap_id = cosim.snapshot()
        with pytest.raises(MigrationError, match="no name to travel by"):
            archive_node(cosim.node("nb"), cosim.registry, snap_id)
        assert archive_node(cosim.node("na"), cosim.registry,
                            snap_id).storage_bytes() > 0
        cosim.run(until=2.75)
        cosim.recovery.rollback_to(cosim.registry.snapshots[snap_id])
        assert cosim.subsystem("sb").now == 0.0
        cosim.run(until=3.0)
        assert sink == [(1.0, 9), (2.0, 8), (3.0, 7)]
        assert fired == ([2.5, 2.5] if unnamed == "control" else [])

    @pytest.mark.parametrize("batching", [True, False])
    def test_cooperative_rollback_and_failover_end_alike(self, pool,
                                                         batching):
        """One way back to a cut: the same scheduled crash under
        ``"recover"``, cooperative (batched or not) and multiprocess —
        both lose the node at the same virtual instant and restart from
        the cut at 0.0 — finishes with the same rows, and every subsystem
        receives the same sequence."""
        from repro.bench.workloads import compute_star

        def received_since_restore(report):
            hops = causal_chains(report.trace_records)["hops"]
            sequences = {}
            for rec in sorted(report.trace_records, key=lambda r: r["seq"]):
                if rec["kind"] == "checkpoint-restore":
                    sequences[rec["subject"]] = []
                elif rec["kind"] == "dispatch":
                    sequences.setdefault(rec["subject"], []).append(
                        (rec["time"], rec["event"],
                         hops.get(span_name(rec["cause"]))))
            return sequences

        def w0_crash():
            return FaultPlan(seed=3, crashes=[NodeCrash("n-w0", at_time=2.0)])

        coop = compute_star(2, 6, words=50, batching=batching,
                            fault_plan=w0_crash(), failure_policy="recover")
        coop.run()
        coop_report = coop.report()
        [lost_at] = [rec["time"] for rec in coop_report.trace_records
                     if rec["kind"] == TraceKind.NODE_CRASH]

        crash = star(pool=pool, fault_plan=w0_crash())
        crash.run(timeout=120.0)
        report = crash.report()

        assert report.migrations[0]["at_global_time"] == lost_at == 1.25
        assert progress_rows(report) == progress_rows(coop_report)
        assert received_since_restore(report) == \
            received_since_restore(coop_report)
        # Both routes write the restore down (the worker's did not).
        assert report.to_dict()["counters"]["checkpoint.restores"] == \
            coop_report.to_dict()["counters"]["checkpoint.restores"] == 3
