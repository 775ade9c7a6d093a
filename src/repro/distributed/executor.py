"""The deterministic co-simulation executor.

Orchestrates a set of Pia nodes in one process: pumps the transport,
enforces the conservative safe-time discipline, triggers periodic
Chandy-Lamport snapshots, and recovers from optimistic stragglers by
coordinated rollback.  Being cooperative and single-threaded, it gives the
same total control over execution order the paper obtains by tricking the
JVM scheduler (section 3.1) — and makes every distributed experiment
reproducible bit for bit.  A round is each node's ``step`` in turn: the
round the paper's deployment, one process per node
(:mod:`repro.distributed.multiprocess`), runs concurrently.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional

from ..core.errors import (
    ConfigurationError,
    DeadlockError,
    LinkDown,
    NodeFailure,
    NoSuchCheckpointError,
)
from ..core.runlevel import RunLevels
from ..core.subsystem import Subsystem
from ..faults import FaultPlan, RetryPolicy
from ..observability import BoundCounter, Telemetry, TraceKind
from ..transport.inmemory import InMemoryTransport
from ..transport.latency import SAME_HOST, LatencyModel
from .channel import ChannelMode, StragglerError
from .node import PiaNode
from .optimistic import RecoveryManager
from .snapshot import SnapshotManager, SnapshotRegistry
from .system import LiveSystem, check_failure_policy

_INF = float("inf")


class CoSimulation(LiveSystem, RunLevels):
    """A complete distributed Pia system under deterministic execution."""

    def __init__(self, *, transport: Optional[InMemoryTransport] = None,
                 default_model: LatencyModel = SAME_HOST,
                 snapshot_interval: Optional[float] = None,
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 failure_policy: str = "recover",
                 batching: bool = False) -> None:
        check_failure_policy(failure_policy)
        super().__init__(transport=transport, default_model=default_model,
                         telemetry=telemetry, fault_plan=fault_plan,
                         retry_policy=retry_policy, batching=batching)
        self.registry = SnapshotRegistry()
        self.recovery = RecoveryManager(self.subsystems, self.transport,
                                        self.registry)
        self.recovery.telemetry = self.telemetry
        RunLevels.__init__(self)
        self.recovery.on_rollback = self._rolled_back
        self._managers: Dict[str, SnapshotManager] = {}
        #: Take a Chandy-Lamport snapshot every this many virtual seconds
        #: (needed whenever optimistic channels are in use).
        self.snapshot_interval = snapshot_interval
        # --- fault plane -------------------------------------------------
        self.failure_policy = failure_policy
        #: Extra settle budget: a held (delayed) message is in flight even
        #: when a pump round moves nothing.
        self._settle_slack = 1 + (fault_plan.max_delay_ticks()
                                  if fault_plan is not None else 0)
        #: Batched fast path: a stalled subsystem re-requests the same
        #: safe time at most every this many rounds — in between it waits
        #: for the granting side to *push* once its floor passes the want
        #: (1 frame instead of the 2-frame request round trip).
        self._refresh_every = 4
        #: subsystem name -> (desired, round of last request).
        self._refresh_throttle: Dict[str, tuple] = {}
        self._pushed = BoundCounter("safetime.pushed")
        #: Node visit order, rebuilt only after membership changes
        #: (:meth:`_membership_changed`).
        self._node_order: Optional[List[PiaNode]] = None
        self._started = False
        #: Total rounds the run loop executed.
        self.rounds = 0
        #: Wall-clock seconds spent inside :meth:`run`.
        self.cpu_seconds = 0.0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _membership_changed(self) -> None:
        """A node or subsystem joined: the cached visit order is stale."""
        self._node_order = None

    def _node_added(self, node: PiaNode) -> None:
        self._membership_changed()
        node.conservative_override = self._conservative_now
        if self.transport.batching:
            node.refresh_due = self._should_refresh
        manager = SnapshotManager(
            node, self.registry,
            expected_subsystems=lambda: set(self.subsystems))
        manager.telemetry = self.telemetry
        self._managers[node.name] = manager

    def _subsystem_added(self, subsystem: Subsystem) -> None:
        self._membership_changed()
        if self.switchpoints.switchpoints:
            self._arm_switchpoints([subsystem])

    def set_link_model(self, node_a: str, node_b: str,
                       model: LatencyModel) -> None:
        self.transport.set_link(node_a, node_b, model)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def subsystem(self, name: str) -> Subsystem:
        try:
            return self.subsystems[name]
        except KeyError:
            raise ConfigurationError(f"no subsystem named {name!r}") from None

    def stalls(self) -> int:
        return sum(ss.scheduler.stalls for ss in self.subsystems.values())

    def safe_time_requests(self) -> int:
        return sum(client.requests_sent for node in self.nodes.values()
                   for client in node.clients.values())

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self, *, initiator: Optional[str] = None) -> str:
        """Take one global Chandy-Lamport snapshot; returns its id.  The
        marks record what the cut catches in flight.  A rollback while
        they settle abandons the cut: its images leave the stores and it
        is taken again, under its id, from the restored state."""
        self.start()
        subsystem = self.subsystem(initiator or min(self.subsystems))
        manager = self._managers[subsystem.node.name]
        injector = self.fault_injector
        snapshot_id = None
        while True:
            snapshot_id = manager.initiate(subsystem, snapshot_id)
            snap = self.registry.snapshots[snapshot_id]
            # Marks need only message pumping (no subsystem progress) to
            # settle.  With a fault plan attached a mark can be parked for
            # a few poll ticks, so the settle budget widens and a settled
            # sweep is not final while the injector still holds traffic.
            for __ in range((2 * len(self.subsystems) + 2)
                            * self._settle_slack):
                self._pump_all()
                if snap.complete or injector is None \
                        or injector.held_pending() == 0:
                    break
            if self.registry.snapshots.get(snapshot_id) is snap:
                break
            for name, cut in snap.cuts.items():
                self.subsystems[name].checkpoints.discard(cut.checkpoint_id)
        if not snap.complete:
            raise DeadlockError(
                f"snapshot {snapshot_id} did not complete: marks pending on "
                f"{[c.pending for c in snap.cuts.values()]}")
        self.switchpoints.save(snapshot_id)
        self.schedule.rearm_cut(self.global_time(), self.snapshot_interval)
        return snapshot_id

    def restore(self, snapshot_id: Optional[str] = None) -> None:
        """Roll the whole system — channels included — back to a completed
        snapshot (default: the most recent one).  An incomplete one
        raises :class:`~repro.core.errors.CheckpointError`."""
        if snapshot_id is None:
            completed = self.registry.completed()
            snap = completed[-1] if completed else None
        else:
            snap = self.registry.snapshots.get(snapshot_id)
        if snap is None:
            raise NoSuchCheckpointError(
                f"no snapshot {snapshot_id!r} to restore — take one with "
                "snapshot()")
        self.recovery.rollback_to(snap)

    def _rolled_back(self, snapshot_id: str) -> None:
        """After every rollback (straggler, crash, :meth:`restore`) the
        switchpoints rewind and the cut cadence restarts from there."""
        self.switchpoints.load(snapshot_id)
        self.schedule.rearm_cut(self.global_time(), self.snapshot_interval)

    def _take_due_cut(self) -> bool:
        """Round end: take the cut the run has got to, if any (one a
        round); one between events still moves the cadence on from it.
        Returns True if one was taken (counts as round progress: the
        windows it held back may now move)."""
        if self.schedule.next_instant() == _INF:
            return False    # nothing owed at all: no generator to build
        cut = next(self.schedule.take_due(self._reached, ("cut",)), None)
        if cut is not None:
            between_events = self.global_time() < cut.instant
            self.snapshot()
            if between_events:
                self.schedule.rearm_cut(cut.instant, self.snapshot_interval)
        return cut is not None

    def _has_optimism(self) -> bool:
        return any(ch.mode is ChannelMode.OPTIMISTIC
                   for ch in self.channels.values())

    def _should_refresh(self, name: str, desired: float) -> bool:
        """Throttle synchronous safe-time requests under batching.

        A freshly stalled subsystem does *not* call immediately: grants
        piggybacked on in-flight frames and the round-boundary pushes
        (consumption reports and satisfied wants) usually unblock it
        within a round or two for free.  Only a stall that survives
        ``_refresh_every`` rounds falls back to the explicit request —
        the liveness backstop.  Round counts are deterministic, so the
        throttle is too."""
        last = self._refresh_throttle.get(name)
        if last is None or last[0] != desired:
            self._refresh_throttle[name] = (desired, self.rounds)
            return False
        if self.rounds - last[1] < self._refresh_every:
            return False
        self._refresh_throttle[name] = (desired, self.rounds)
        return True

    def _push_stalled_grants(self) -> bool:
        """Round boundary under batching: push standalone grants to peers
        recorded as stalled whose want the local floor has now passed.
        Each push is one frame replacing the two-frame request round trip
        the peer would otherwise issue.  Returns True if one was pushed
        (counts as round progress)."""
        transport = self.transport
        acted = False
        for node in self._ordered_nodes():
            for dst, grants in sorted(node.stalled_grants().items()):
                if transport.push_grants(node.name, dst, grants):
                    acted = True
                    self._pushed.inc(self.telemetry, len(grants))
        return acted

    def _conservative_now(self) -> bool:
        recovery = self.recovery
        # Asked for every grant; until a rollback opens a window there
        # is no global time worth computing.
        return recovery.conservative_until != float("-inf") \
            and recovery.in_conservative_window(self.global_time())

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.validate_topology()
        self.schedule.arm_crashes(self.fault_plan, self.nodes)
        self.schedule.rearm_cut(0.0, self.snapshot_interval)
        for node in self._ordered_nodes():
            node.start()
        if self._has_optimism() or self._wants_crash_recovery():
            # Optimism — and crash recovery — require a restorable
            # baseline before anything moves.
            self.snapshot()
        self._poll_switchpoints()

    def _wants_crash_recovery(self) -> bool:
        return (self.fault_plan is not None
                and bool(self.fault_plan.crashes)
                and self.failure_policy == "recover")

    def _ordered_nodes(self) -> List[PiaNode]:
        # By first subsystem: one subsystem per node visits them by name.
        if self._node_order is None:
            self._node_order = sorted(
                self.nodes.values(),
                key=lambda node: min(node.subsystems, default=node.name))
        return self._node_order

    def _pump_all(self) -> int:
        """Route all in-flight messages; recover from stragglers.  Only
        nodes the transport names ready are pumped, in the usual order
        — a node made ready by an earlier node's pump is visited in the
        same sweep, as it always was."""
        total = 0
        ready = self.transport.ready
        while True:
            pumped = 0
            for node in self._ordered_nodes():
                if not ready(node.name):
                    continue
                try:
                    pumped += node.pump()
                except LinkDown as down:
                    self._absorb_link_down(down)
                    pumped += 1
                except StragglerError as straggler:
                    self._recover_straggler(straggler)
                    pumped += 1
            total += pumped
            if pumped == 0:
                return total

    def _recover_straggler(self, straggler: StragglerError) -> None:
        self.recovery.recover(straggler)
        # The conservative window extends far enough for the next
        # snapshot to land inside it — otherwise a sparse cadence lets the
        # same race recur immediately.
        self.recovery.conservative_until = max(
            self.recovery.conservative_until,
            straggler.straggler_time + (self.snapshot_interval or 0.0))

    def run(self, until: float = float("inf"), *,
            max_rounds: Optional[int] = None) -> int:
        """Run the whole system until global quiescence (or ``until``).

        Returns the total number of events dispatched.
        """
        started_at = _time.perf_counter()
        self.start()
        dispatched = 0
        idle_rounds = 0
        while True:
            self.rounds += 1
            if max_rounds is not None and self.rounds > max_rounds:
                break
            acted = False
            if self.fault_injector is not None:
                acted = self._fault_tick(until)
            progress = self._pump_all() > 0 or acted
            for node in self._ordered_nodes():
                try:
                    moved, count = node.step(until)
                except LinkDown as down:
                    self._absorb_link_down(down)
                    progress = True
                    continue
                except StragglerError as straggler:
                    self._recover_straggler(straggler)
                    progress = True
                    continue
                progress = progress or moved
                if count:
                    dispatched += count
                    if self.switchpoints.switchpoints:
                        self._poll_switchpoints()
            if self.transport.batching:
                progress = self._push_stalled_grants() or progress
            progress = self._take_due_cut() or progress
            series = self.telemetry.series
            if series is not None:
                # Round boundary = the sampling point: virtual-cadence
                # samples are deterministic here because the round
                # structure is.
                series.tick(self.global_time(), self.telemetry.registry)
            if not progress:
                idle_rounds += 1
                if self._reached(until, finish=True):
                    break
                idle_budget = (len(self.subsystems) + 2) * self._settle_slack
                if self.transport.batching:
                    # Throttled refreshes make a waiting round look idle;
                    # widen the deadlock budget by the throttle period.
                    idle_budget *= self._refresh_every
                if idle_rounds > idle_budget:
                    self._report_deadlock(until)
            else:
                idle_rounds = 0
        elapsed = _time.perf_counter() - started_at
        self.cpu_seconds += elapsed
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.registry.timer("executor.run").add(elapsed)
            telemetry.gauge("executor.rounds", self.rounds)
        return dispatched

    # ------------------------------------------------------------------
    # fault plane (a lost node: recover / raise)
    # ------------------------------------------------------------------
    def _fault_tick(self, until: float) -> bool:
        """Round start: lose each node whose scheduled crash the run has
        got to — never one beyond ``until``, which a later run reaches.
        Returns True if one fired (counts as round progress)."""
        acted = False
        for crash in self.schedule.take_due(
                lambda instant: instant <= until and self._reached(instant),
                ("crash",)):
            self._lose_node(crash.target)
            acted = True
        return acted

    def _absorb_link_down(self, down: LinkDown) -> None:
        """A send or call exhausted its retry budget.  If the destination
        is a known node, presume it lost (the failure policy responds at
        once); otherwise propagate."""
        if self.fault_injector is None or down.dst not in self.nodes:
            raise down
        self._lose_node(down.dst)

    def _recover_node(self, node: str) -> None:
        """Restart ``node`` from the last consistent global snapshot."""
        completed = self.registry.completed()
        if not completed:
            raise NodeFailure(
                f"node {node!r} failed with no completed snapshot to "
                "recover from — set snapshot_interval", node=node)
        snap = completed[-1]
        self.fault_injector.mark_up(node)
        self.recovery.rollback_to(snap)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("fault.node_recoveries")
            telemetry.trace(TraceKind.NODE_RECOVER, time=self.global_time(),
                            subject=node, snapshot_id=snap.snapshot_id,
                            restored_time=snap.max_time())

    def _report_deadlock(self, until: float) -> None:
        detail = []
        for __, subsystem in sorted(self.subsystems.items()):
            client = subsystem.node.clients[subsystem.name]
            detail.append(
                f"{subsystem.name}: t={subsystem.now:g} "
                f"next={subsystem.next_event_time():g} "
                f"horizon={client.horizon():g}")
        self.telemetry.flight.note(TraceKind.ABORT, "cosim",
                                   time=self.global_time(), reason="deadlock")
        self.telemetry.flight.dump(tag="cosim", reason="deadlock")
        raise DeadlockError(
            "no subsystem can advance and no messages are in flight:\n  "
            + "\n  ".join(detail))
