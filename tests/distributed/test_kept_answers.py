"""Every answer the round keeps equals its evaluation afresh.

The node round keeps four answers as values and updates them where they
change (DESIGN.md §5, "Kept answers"): a subsystem's horizon, a node's
readiness, a subsystem's next-event time (its queue's head) and an
endpoint's grant floor.  ``OracleNode`` recomputes each afresh
after every ``PiaNode.step``, and the cooperative executor's round end
does the same for every node; each must equal the kept value.  The
worker processes of a live migration run the same check after each of
their steps and count what they saw into the report.
"""

import dataclasses

import pytest

from repro.bench.workloads import compute_star, compute_star_spec
from repro.distributed import ChannelMode, CoSimulation, WorkerPool, build
from repro.distributed import system
from repro.distributed.conservative import UNBOUNDED, compute_grant
from repro.distributed.node import PiaNode
from repro.distributed.spec import resolve_factory
from repro.faults import FaultPlan, LinkFaults, NodeCrash

from . import test_snapshot_optimistic
from .test_snapshot_optimistic import run_optimistic
from .test_spec_matrix import SPECS

_CONSERVATIVE = ChannelMode.CONSERVATIVE


def mismatches(node):
    """What differs between each kept answer on ``node`` and the same
    answer computed afresh: a list of ``(answer, where, kept,
    fresh)``."""
    found = []
    transport = node.transport
    # Readiness: would a poll move anything?  ``pending`` counts it.
    kept = transport.ready(node.name)
    fresh = transport.pending(node.name) > 0
    if kept != fresh:
        found.append(("ready", node.name, kept, fresh))
    conservative = node.conservative_override()
    for name, subsystem in sorted(node.subsystems.items()):
        client = node.clients[name]
        queue = subsystem.scheduler.queue
        # Next-event time: the queue's head against its whole contents.
        kept = queue.next_time()
        fresh = min((event.time for event in queue.snapshot()),
                    default=UNBOUNDED)
        if kept != fresh:
            found.append(("next_time", name, kept, fresh))
        # Horizon: the lowest effective horizon of the restricting ends.
        endpoints = list(subsystem.channels.values())
        fresh = min((endpoint.effective_horizon() for endpoint in endpoints
                     if conservative
                     or endpoint.channel.mode is _CONSERVATIVE),
                    default=UNBOUNDED)
        kept = client.horizon()
        if kept != fresh:
            found.append(("horizon", name, kept, fresh))
        # Grant floor: a kept grant that claims its inputs still hold.
        for endpoint in endpoints:
            grant = endpoint.kept_grant
            if grant is None or grant[:3] != (endpoint.siblings_moved,
                                              queue.next_time(),
                                              conservative):
                continue
            fresh = compute_grant(subsystem, endpoint.peer_subsystem,
                                  conservative_override=conservative)
            if grant[3] != fresh:
                found.append(("grant", endpoint.channel.channel_id,
                              grant[3], fresh))
    return found


class OracleNode(PiaNode):
    """A node that checks every kept answer after each of its steps."""

    checks = 0

    def step(self, until=float("inf")):
        result = super().step(until)
        check(self)
        return result


def check(node):
    found = mismatches(node)
    OracleNode.checks += 1
    assert not found, f"kept answers went stale on {node.name}: {found}"


@pytest.fixture
def oracle(monkeypatch):
    """Every node built from here on is an ``OracleNode``, and every
    cooperative round end checks every node."""
    monkeypatch.setattr(system, "PiaNode", OracleNode)
    monkeypatch.setattr(OracleNode, "checks", 0)
    take_due_cut = CoSimulation._take_due_cut

    def round_end(cosim):
        take_due_cut(cosim)
        for node in cosim._ordered_nodes():
            check(node)

    monkeypatch.setattr(CoSimulation, "_take_due_cut", round_end)
    yield OracleNode
    assert OracleNode.checks > 0


@pytest.mark.parametrize("batching", [False, True],
                         ids=["unbatched", "batched"])
@pytest.mark.parametrize("workload", sorted(SPECS))
def test_the_cooperative_spec_matrix(oracle, workload, batching):
    cosim = build(SPECS[workload](), "cosim", batching=batching)
    assert cosim.run() > 0


def test_a_batched_chaos_star_that_crashes_and_recovers(oracle):
    cosim = compute_star(
        2, 6, words=50, batching=True, snapshot_interval=2.0,
        failure_policy="recover",
        fault_plan=FaultPlan(
            seed=7, default=LinkFaults(drop=0.1, duplicate=0.1,
                                       reorder=0.1, delay=0.1),
            crashes=(NodeCrash("n-w0", at_time=3.5),)))
    assert cosim.run() > 0
    assert cosim.report().counter("fault.node_recoveries") == 1


def test_an_optimistic_rollback(oracle):
    cosim, __ = run_optimistic([1, 2, 3])
    assert cosim.recovery.rollbacks


class TestOptimisticChannels(test_snapshot_optimistic.TestOptimisticChannels):
    """The optimistic-channel tests again, every node an ``OracleNode``:
    the kept answers hold across stragglers, rollbacks and retaken
    cuts."""

    @pytest.fixture(autouse=True)
    def _checked(self, oracle):
        yield


def test_restore_and_run_on(oracle):
    cosim = compute_star(2, 6, words=50, batching=True)
    cosim.run(until=3.0)
    cut = cosim.snapshot()
    cosim.run(until=5.0)
    cosim.restore(cut)
    assert cosim.run() > 0


# ----------------------------------------------------------------------
# a live migration: the workers check their own steps
# ----------------------------------------------------------------------
def oracle_stage(name, factory, *args, **kwargs):
    """``factory``'s subsystem, built in a worker whose ``PiaNode.step``
    then checks every kept answer after each step and counts what it
    saw into the worker's telemetry, which the report folds."""
    if not getattr(PiaNode.step, "oracle", False):
        plain = PiaNode.step

        def step(node, until=float("inf")):
            result = plain(node, until)
            telemetry = next(iter(node.subsystems.values())) \
                .scheduler.telemetry
            telemetry.count("oracle.checks")
            if mismatches(node):
                telemetry.count("oracle.mismatches")
            return result

        step.oracle = True
        PiaNode.step = step
    return resolve_factory(factory)(name, *args, **kwargs)


def under_oracle(spec):
    """``spec`` with every subsystem built by :func:`oracle_stage`."""
    for subsystems in spec.nodes.values():
        subsystems[:] = [dataclasses.replace(
            sspec, factory=__name__ + ":oracle_stage",
            args=(sspec.factory,) + sspec.args) for sspec in subsystems]
    return spec


def test_a_live_migration():
    with WorkerPool() as pool:      # its workers take the patched step
        moved = build(under_oracle(compute_star_spec(2, 6, words=50)),
                      "multiprocess", pool=pool,
                      failure_policy="recover")
        moved.migrate_at("n-w1", 2.0)
        moved.run(timeout=120.0)
        report = moved.report()
    assert [m["kind"] for m in report.migrations] == ["migrate"]
    assert report.counter("oracle.checks") > 0
    assert report.counter("oracle.mismatches") == 0
