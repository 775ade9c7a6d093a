"""Process-per-node deployment: bootstrap specs, control plane, merged
reports, and same-seed chaos equivalence with the cooperative executor."""

import json
import pickle

import pytest

from repro.bench.workloads import (
    compute_star,
    compute_star_multiprocess,
    make_compute_hub,
    make_compute_worker,
)
from repro.core.errors import ConfigurationError, NodeFailure, TopologyError
from repro.core.component import Component
from repro.distributed import (
    MultiprocessCoSimulation,
    SystemSpec,
    WorkerPool,
    build,
)
from repro.distributed.multiprocess import resolve_factory
from repro.distributed.multiprocess.coordinator import status_snapshot
from repro.faults import FaultPlan, LinkFaults, NodeCrash, RetryPolicy
from repro.observability import RunReport

#: Rates chosen (with seed 0) to fire every fault kind at least once on
#: the small star: drops, duplicates (and their suppression), delays,
#: reorders and retries.
CHAOS = dict(seed=0, default=LinkFaults(drop=0.12, duplicate=0.15,
                                        delay=0.12, delay_ticks=2,
                                        reorder=0.1))
FAST_RETRY = dict(max_attempts=8, base_delay=0.0005, max_delay=0.002,
                  jitter=0.0)


def progress_rows(report):
    return sorted((row["name"], row["time"], row["dispatched"])
                  for row in report.subsystems)


def make_exploding_worker(name, *, index, rounds, words, period=1.0):
    """A spoke whose behaviour raises mid-run — importable by dotted path
    so a spawned worker builds it cleanly, then blows up on first use."""
    from repro.core.component import FunctionComponent
    from repro.core.process import Receive
    from repro.core.subsystem import Subsystem

    def behave(comp):
        yield Receive("go")
        raise RuntimeError(f"{name} exploded mid-run")

    worker = FunctionComponent("worker", behave,
                               ports={"go": "in", "done": "out"})
    subsystem = Subsystem(name)
    subsystem.add(worker)
    subsystem.wire(f"go{index}", worker.port("go"))
    subsystem.wire(f"done{index}", worker.port("done"))
    return subsystem


def make_dice_hub(name, *, rounds):
    """Sends ``go`` and waits as long as the roll it gets back, so its
    clock is the sum of what it received (importable by dotted path, as
    are the spokes below)."""
    from repro.core import FunctionComponent, Receive, Send, WaitUntil
    from repro.core.subsystem import Subsystem

    def behave(comp):
        comp.rolls = []
        for round_index in range(rounds):
            yield Send("go", round_index)
            __, roll = yield Receive("done")
            comp.rolls.append(roll)
            yield WaitUntil(comp.local_time + roll)

    hub = FunctionComponent("hub", behave, ports={"go": "out", "done": "in"})
    subsystem = Subsystem(name)
    subsystem.add(hub)
    subsystem.wire("go0", hub.port("go"))
    subsystem.wire("done0", hub.port("done"))
    return subsystem


def make_dice_spoke(name, *, rounds):
    """Answers every ``go`` with a roll of its component's ``rng``."""
    from repro.core import FunctionComponent, Receive, Send
    from repro.core.subsystem import Subsystem

    def behave(comp):
        for __ in range(rounds):
            yield Receive("go")
            yield Send("done", comp.rng.randint(1, 6))

    dice = FunctionComponent("dice", behave, ports={"go": "in", "done": "out"})
    subsystem = Subsystem(name)
    subsystem.add(dice)
    subsystem.wire("go0", dice.port("go"))
    subsystem.wire("done0", dice.port("done"))
    return subsystem


def dice_spec(rounds=8):
    here = "tests.distributed.test_multiprocess:"
    spec = SystemSpec()
    spec.add_subsystem(spec.add_node("n-hub"), "hub", here + "make_dice_hub",
                       rounds=rounds)
    spec.add_subsystem(spec.add_node("n-w0"), "w0", here + "make_dice_spoke",
                       rounds=rounds)
    spec.connect("hub", "w0", delay=0.25, nets=("go0", "done0"))
    return spec


# ----------------------------------------------------------------------
# specs and factories
# ----------------------------------------------------------------------

class TestSpecs:
    def test_resolve_factory_dotted_and_colon_paths(self):
        by_colon = resolve_factory("repro.bench.workloads:make_compute_hub")
        by_dot = resolve_factory("repro.bench.workloads.make_compute_hub")
        assert by_colon is make_compute_hub
        assert by_dot is make_compute_hub

    @pytest.mark.parametrize("ref", ["", "nodots", "repro.nosuchmodule:x",
                                     "repro.bench.workloads:nosuchattr"])
    def test_bad_references_raise(self, ref):
        with pytest.raises(ConfigurationError):
            resolve_factory(ref)

    def test_worker_spec_pickles_and_filters_crashes(self):
        plan = FaultPlan(seed=7, crashes=[NodeCrash("n-hub", 5.0),
                                          NodeCrash("n-w0", 9.0)])
        cosim = compute_star_multiprocess(2, 3, words=10, fault_plan=plan)
        spec = cosim.worker_spec("n-w0")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.node == "n-w0"
        assert [s.name for s in clone.subsystems] == ["w0"]
        # Same seed (decisions are keyed by it), own crashes only.
        assert clone.fault_plan.seed == 7
        assert [c.node for c in clone.fault_plan.crashes] == ["n-w0"]
        # The spec builds a real subsystem in-process too.
        built = clone.subsystems[0].build()
        assert built.name == "w0"
        assert set(built.nets) == {"go0", "done0"}

    def test_duplicate_names_rejected(self):
        cosim = MultiprocessCoSimulation()
        cosim.spec.add_node("n0")
        cosim.spec.add_subsystem("n0", "ss",
                                 "repro.bench.workloads:make_compute_hub")
        with pytest.raises(ConfigurationError):
            cosim.spec.add_node("n0")
        with pytest.raises(ConfigurationError):
            cosim.spec.add_subsystem("n0", "ss",
                                     "repro.bench.workloads:make_compute_hub")
        with pytest.raises(ConfigurationError):
            cosim.spec.add_subsystem("missing", "other",
                                     "repro.bench.workloads:make_compute_hub")
        # A channel from a subsystem to itself could only fail inside the
        # worker, as a NodeFailure: refused at declaration.
        with pytest.raises(ConfigurationError, match="to itself"):
            cosim.spec.connect("ss", "ss")

    def test_cyclic_channel_graph_rejected_before_spawning(self):
        cosim = MultiprocessCoSimulation()
        for index in range(3):
            cosim.spec.add_node(f"n{index}")
            cosim.spec.add_subsystem(f"n{index}", f"ss{index}",
                                     "unused-factory")
        cosim.spec.connect("ss0", "ss1")
        cosim.spec.connect("ss1", "ss2")
        cosim.spec.connect("ss2", "ss0")
        with pytest.raises(TopologyError, match="cycle"):
            cosim.run(until=1.0)


# ----------------------------------------------------------------------
# execution and merged reporting
# ----------------------------------------------------------------------

class TestExecution:
    def test_matches_cooperative_run_exactly(self):
        reference = compute_star(2, 4, words=50, executor="cosim")
        ref_events = reference.run(until=100.0)
        ref_report = reference.report()

        cosim = compute_star_multiprocess(2, 4, words=50)
        events = cosim.run(until=100.0, timeout=60.0)
        report = cosim.report()

        assert events == ref_events
        assert progress_rows(report) == progress_rows(ref_report)
        assert cosim.global_time() == min(
            row["time"] for row in ref_report.subsystems)

    def test_report_merges_worker_telemetry(self):
        cosim = compute_star_multiprocess(2, 3, words=50)
        events = cosim.run(until=100.0, timeout=60.0)
        report = cosim.report(title="merged")

        assert report.title == "merged"
        assert [row["name"] for row in report.subsystems] == \
            ["hub", "w0", "w1"]
        # One directed link row per (src, dst) pair, merged across the
        # three per-process transports.
        links = {(row["src"], row["dst"]) for row in report.links}
        assert links == {("n-hub", "n-w0"), ("n-hub", "n-w1"),
                         ("n-w0", "n-hub"), ("n-w1", "n-hub")}
        # Counters sum across processes: every dispatched event was
        # counted by exactly one worker's telemetry.
        assert report.counters["scheduler.dispatched"] == events
        assert report.counters["transport.frames_sent"] == \
            sum(row["frames"] for row in report.links)
        # The batched fast path is on by default and its histogram
        # survives the merge.
        assert report.histograms["transport.batch_size"]["count"] > 0
        # A DISPATCH record is filed for a caused dispatch only.
        dispatches = [record for record in report.trace_records
                      if record["kind"] == "dispatch"]
        assert 0 < report.trace_counts["dispatch"] == len(dispatches) < events
        assert all("cause" in record for record in dispatches)

    def test_component_rng_draws_the_same_in_every_process(self):
        """A spawned worker salts ``hash()`` differently from this
        process; the rolls its ``rng`` draws must not notice."""
        reference = build(dice_spec())
        reference.run()
        rolls = reference.subsystems["hub"].components["hub"].rolls
        dice = Component("dice").rng
        assert rolls == [dice.randint(1, 6) for __ in rolls]

        cosim = build(dice_spec(), "multiprocess")
        cosim.run(timeout=60.0)
        report = cosim.report()
        cosim.close()
        assert progress_rows(report) == progress_rows(reference.report())
        hub_time = {row["name"]: row["time"] for row in report.subsystems}
        assert hub_time["hub"] == 8 * 0.5 + sum(rolls)

    def test_report_before_run_raises(self):
        cosim = compute_star_multiprocess(2, 3, words=10)
        with pytest.raises(Exception, match="run"):
            cosim.report()

    def test_empty_simulation_is_a_noop(self):
        assert MultiprocessCoSimulation().run(until=10.0) == 0


# ----------------------------------------------------------------------
# chaos and failure surfacing
# ----------------------------------------------------------------------

class TestChaos:
    def test_same_seed_chaos_matches_cooperative(self):
        """The satellite acceptance check: identical drop/duplicate/delay
        counters and final virtual times for the same plan seed."""
        reference = compute_star(2, 6, words=50, executor="cosim",
                                 fault_plan=FaultPlan(**CHAOS),
                                 retry_policy=RetryPolicy(**FAST_RETRY))
        ref_events = reference.run(until=100.0)
        ref_report = reference.report()
        # The seed really does exercise the interesting paths.
        for kind in ("fault.drops", "fault.duplicates",
                     "fault.duplicates_suppressed", "fault.delays",
                     "fault.reorders", "retry.attempts"):
            assert ref_report.faults.get(kind, 0) > 0, kind

        cosim = compute_star_multiprocess(
            2, 6, words=50, fault_plan=FaultPlan(**CHAOS),
            retry_policy=RetryPolicy(**FAST_RETRY))
        events = cosim.run(until=100.0, timeout=90.0)
        report = cosim.report()

        assert events == ref_events
        assert progress_rows(report) == progress_rows(ref_report)
        assert report.faults == ref_report.faults

    def test_scheduled_crash_surfaces_as_node_failure(self):
        plan = FaultPlan(seed=3, crashes=[NodeCrash("n-w0", at_time=2.0)])
        cosim = compute_star_multiprocess(2, 6, words=50, fault_plan=plan)
        with pytest.raises(NodeFailure) as excinfo:
            cosim.run(until=100.0, timeout=60.0)
        assert excinfo.value.node == "n-w0"

    def test_broken_factory_surfaces_as_node_failure(self):
        cosim = MultiprocessCoSimulation()
        cosim.spec.add_node("n0")
        cosim.spec.add_subsystem("n0", "ss0",
                                 "repro.bench.workloads:make_compute_hub",
                                 workers=1, rounds=1)
        cosim.spec.add_node("n1")
        cosim.spec.add_subsystem("n1", "ss1",
                                 "repro.bench.workloads:nosuchattr")
        cosim.spec.connect("ss0", "ss1")
        with pytest.raises(NodeFailure) as excinfo:
            cosim.run(until=10.0, timeout=30.0)
        assert excinfo.value.node == "n1"
        assert "nosuchattr" in str(excinfo.value)

    def test_worker_exception_mid_run_surfaces_its_message(self):
        """The regression: the dead-worker probe passed ``monotonic()``
        as the deadline, so a queued parting error could be missed and
        reported as a generic unresponsive/died message.  The actual
        exception text must reach the coordinator."""
        cosim = MultiprocessCoSimulation(
            retry_policy=RetryPolicy(**FAST_RETRY))
        cosim.spec.add_node("n-hub")
        cosim.spec.add_subsystem("n-hub", "hub",
                                 "repro.bench.workloads:make_compute_hub",
                                 workers=1, rounds=2)
        cosim.spec.add_node("n-w0")
        cosim.spec.add_subsystem(
            "n-w0", "w0",
            "tests.distributed.test_multiprocess:make_exploding_worker",
            index=0, rounds=2, words=10)
        cosim.spec.connect("hub", "w0", delay=0.25, nets=("go0", "done0"))
        with pytest.raises(NodeFailure) as excinfo:
            cosim.run(until=100.0, timeout=30.0)
        assert excinfo.value.node == "n-w0"
        assert "w0 exploded mid-run" in str(excinfo.value)
        cosim.close()


# ----------------------------------------------------------------------
# the shared-memory data plane
# ----------------------------------------------------------------------

class TestSharedMemoryBackend:
    def test_shm_matches_cooperative_run_exactly(self):
        """The tentpole acceptance check: the shm-backed run's report is
        indistinguishable from the cooperative executor's on the
        deterministic fields (events, per-subsystem progress, dispatch
        traces, faults)."""
        reference = compute_star(2, 4, words=50, executor="cosim")
        ref_events = reference.run(until=100.0)
        ref_report = reference.report()

        cosim = compute_star_multiprocess(2, 4, words=50, transport="shm")
        events = cosim.run(until=100.0, timeout=60.0)
        report = cosim.report()
        cosim.close()

        assert events == ref_events
        assert progress_rows(report) == progress_rows(ref_report)
        assert report.counters["scheduler.dispatched"] == \
            ref_report.counters["scheduler.dispatched"]
        assert report.trace_counts.get("dispatch") == \
            ref_report.trace_counts.get("dispatch")
        assert report.faults == ref_report.faults == {}
        # The data plane really was shared memory, not loopback TCP.
        assert report.counters["transport.shm_frames"] > 0

    def test_shm_same_seed_chaos_matches_cooperative(self):
        reference = compute_star(2, 6, words=50, executor="cosim",
                                 fault_plan=FaultPlan(**CHAOS),
                                 retry_policy=RetryPolicy(**FAST_RETRY))
        ref_events = reference.run(until=100.0)
        ref_report = reference.report()

        cosim = compute_star_multiprocess(
            2, 6, words=50, transport="shm", fault_plan=FaultPlan(**CHAOS),
            retry_policy=RetryPolicy(**FAST_RETRY))
        events = cosim.run(until=100.0, timeout=90.0)
        report = cosim.report()
        cosim.close()

        assert events == ref_events
        assert progress_rows(report) == progress_rows(ref_report)
        assert report.faults == ref_report.faults

    def test_tiny_rings_spill_oversized_frames_over_tcp(self):
        """With rings too small for most frames, the TCP fallback must
        carry them without changing the run's result."""
        reference = compute_star(2, 3, words=50, executor="cosim")
        ref_events = reference.run(until=100.0)

        # 64 bytes: far below a 50-word batch frame even in the compact
        # binary codec, so the TCP fallback is genuinely exercised.
        cosim = compute_star_multiprocess(2, 3, words=50, transport="shm",
                                          ring_capacity=64)
        events = cosim.run(until=100.0, timeout=60.0)
        report = cosim.report()
        cosim.close()

        assert events == ref_events
        assert report.counters.get("transport.shm_spills", 0) > 0

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="transport"):
            MultiprocessCoSimulation(transport="carrier-pigeon")


# ----------------------------------------------------------------------
# the warm worker pool
# ----------------------------------------------------------------------

class TestWarmPool:
    def test_repeat_runs_reuse_the_same_processes(self):
        """Consecutive runs on one executor must not respawn: the pool
        spawns once per node, then reuses."""
        cosim = compute_star_multiprocess(2, 3, words=20, transport="shm")
        first = cosim.run(until=100.0, timeout=60.0)
        second = cosim.run(until=100.0, timeout=60.0)
        pool = cosim._own_pool
        assert first == second
        assert pool.spawned == 3
        assert len(pool._idle) == 3
        cosim.close()
        assert len(pool._idle) == 0

    def test_shared_pool_across_executors(self):
        with WorkerPool() as pool:
            for __ in range(2):
                cosim = compute_star_multiprocess(2, 3, words=20, pool=pool)
                cosim.run(until=100.0, timeout=60.0)
            assert pool.spawned == 3
            assert len(pool._idle) == 3

    def test_closed_pool_rejects_acquire(self):
        pool = WorkerPool()
        pool.close()
        with pytest.raises(ConfigurationError):
            pool.acquire(1)

    def test_unhealthy_release_respawns_replacement(self):
        """A worker that died mid-job must not shrink the pool: an
        unhealthy release spawns a replacement into the idle set, so
        capacity stays constant across failovers (regression — the pool
        used to silently lose a slot on every worker death)."""
        with WorkerPool() as pool:
            first, second = pool.acquire(2)
            assert pool.spawned == 2
            first.proc.terminate()
            first.proc.join(timeout=5.0)
            pool.release(first, healthy=False)
            pool.release(second)
            assert pool.spawned == 3
            assert len(pool._idle) == 2
            assert all(worker.is_alive() for worker in pool.acquire(2))


# ----------------------------------------------------------------------
# the status document (the coordinator is its only producer)
# ----------------------------------------------------------------------

WORKER_STATUS = {
    "node": "n-w0",
    "idle": False,
    "rounds": 12,
    "pending": 1,
    "wire_out": 5,
    "wire_in": 4,
    "wall": 0.0,
    "subsystems": [{
        "name": "w0", "time": 3.5, "next_event": 4.0, "dispatched": 7,
        "stalls": 2, "queue_depth": 1, "horizon": float("inf"),
        "stalled": False, "waiting_on": "hub@n-hub",
    }],
}


class TestStatusSnapshot:
    def test_json_safe_and_complete(self):
        snapshot = status_snapshot({"n-w0": WORKER_STATUS}, until=10.0)
        json.dumps(snapshot)    # must not choke on inf
        node = snapshot["nodes"]["n-w0"]
        row = node["subsystems"][0]
        assert snapshot["phase"] == "running"
        assert snapshot["until"] == 10.0
        assert snapshot["global_time"] == 3.5
        assert row["horizon"] is None           # inf -> null
        assert row["waiting_on"] == "hub@n-hub"
        assert node["heartbeat_age"] >= 0.0

    def test_infinite_until_is_null(self):
        snapshot = status_snapshot({"n-w0": WORKER_STATUS})
        assert snapshot["until"] is None

    def test_done_phase_carried_through(self):
        snapshot = status_snapshot({}, phase="done")
        assert snapshot["phase"] == "done"
        assert snapshot["global_time"] == 0.0

    def test_telemetry_sections_are_the_report_folded_so_far(self):
        report = RunReport("live")
        report.counters = {"safetime.served": 3}
        report.gauges = {"horizon": float("inf")}
        report.timeseries = {"n-w0/c": {"points": [[1.0, float("inf")]]}}
        report.link_health = [{"src": "n-w0", "dst": "n-hub", "score": 1.0}]
        snapshot = status_snapshot({"n-w0": WORKER_STATUS}, report=report)
        json.dumps(snapshot)
        assert snapshot["telemetry"] == {"counters": {"safetime.served": 3},
                                         "gauges": {"horizon": None}}
        assert snapshot["series"] == {"n-w0/c": {"points": [[1.0, None]]}}
        assert snapshot["health"] == report.link_health
        assert "telemetry" not in status_snapshot({"n-w0": WORKER_STATUS})
