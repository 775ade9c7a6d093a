"""The deterministic co-simulation executor.

Orchestrates a set of Pia nodes in one process: pumps the transport,
enforces the conservative safe-time discipline, triggers periodic
Chandy-Lamport snapshots, and recovers from optimistic stragglers by
coordinated rollback.  Being cooperative and single-threaded, it gives the
same total control over execution order the paper obtains by tricking the
JVM scheduler (section 3.1) — and makes every distributed experiment
reproducible bit for bit.  The genuinely concurrent deployment lives in
:mod:`repro.distributed.threaded`.
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
from ..faults import FailureDetector, FaultPlan, RetryPolicy
from ..observability import BoundCounter, Telemetry, TraceKind
from ..transport.inmemory import InMemoryTransport
from ..transport.latency import SAME_HOST, LatencyModel
from ..transport.message import Message
from .channel import ChannelMode, StragglerError
from .node import PiaNode
from .optimistic import RecoveryManager
from .snapshot import SnapshotManager, SnapshotRegistry
from .system import LiveSystem

#: What the executor does once the failure detector confirms a node loss.
FAILURE_POLICIES = ("recover", "raise", "drop-node")


class CoSimulation(LiveSystem, RunLevels):
    """A complete distributed Pia system under deterministic execution."""

    def __init__(self, *, transport: Optional[InMemoryTransport] = None,
                 default_model: LatencyModel = SAME_HOST,
                 snapshot_interval: Optional[float] = None,
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 failure_policy: str = "recover",
                 heartbeat_misses: int = 3,
                 batching: bool = False) -> None:
        if failure_policy not in FAILURE_POLICIES:
            raise ConfigurationError(
                f"failure_policy must be one of {FAILURE_POLICIES}: "
                f"{failure_policy!r}")
        super().__init__(transport=transport, default_model=default_model,
                         telemetry=telemetry, fault_plan=fault_plan,
                         retry_policy=retry_policy, batching=batching)
        self.registry = SnapshotRegistry()
        self.recovery = RecoveryManager(self.subsystems, self.transport,
                                        self.registry)
        self.recovery.telemetry = self.telemetry
        RunLevels.__init__(self)
        self.recovery.on_rollback = self.switchpoints.load
        self._managers: Dict[str, SnapshotManager] = {}
        #: Take a Chandy-Lamport snapshot every this many virtual seconds
        #: (needed whenever optimistic channels are in use).
        self.snapshot_interval = snapshot_interval
        self._last_snapshot_time = 0.0
        # --- fault plane -------------------------------------------------
        self.failure_policy = failure_policy
        self.detector: Optional[FailureDetector] = None
        self._down_nodes: set = set()
        self._dead_nodes: set = set()
        self._dead_subsystems: set = set()
        if fault_plan is not None:
            #: Heartbeat staleness, measured in run-loop rounds here.
            self.detector = FailureDetector(timeout=float(heartbeat_misses))
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
        #: Visit orders, rebuilt only after membership changes
        #: (:meth:`_membership_changed`); never mutated in place, so a
        #: loop over one survives a crash absorbed mid-sweep.
        self._node_order: Optional[List[PiaNode]] = None
        self._live_order: Optional[List[Subsystem]] = None
        self._subsystem_order: Optional[List[Subsystem]] = None
        self._started = False
        #: Total rounds the run loop executed.
        self.rounds = 0
        #: Wall-clock seconds spent inside :meth:`run`.
        self.cpu_seconds = 0.0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _membership_changed(self) -> None:
        """A node or subsystem joined, went down, came back or was
        dropped: the cached visit orders are stale."""
        self._node_order = self._live_order = self._subsystem_order = None

    def _node_added(self, node: PiaNode) -> None:
        self._membership_changed()
        node.conservative_override = self._conservative_now
        node.service_bound = self._next_service
        manager = SnapshotManager(
            node, self.registry, expected_subsystems=lambda: set(self.subsystems))
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

    def _live_subsystems(self) -> List[Subsystem]:
        """Subsystems still part of the computation (``drop-node`` policy
        permanently removes a failed node's subsystems, which then stand
        still)."""
        if self._live_order is None:
            self._live_order = [
                ss for name, ss in sorted(self.subsystems.items())
                if name not in self._dead_subsystems]
        return self._live_order

    def finished(self) -> bool:
        """No work left anywhere (the finish line with no ``until``)."""
        return self._reached(float("inf"), finish=True)

    def stalls(self) -> int:
        return sum(ss.scheduler.stalls for ss in self.subsystems.values())

    def safe_time_requests(self) -> int:
        return sum(client.requests_sent for node in self.nodes.values()
                   for client in node.clients.values())

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self, *, initiator: Optional[str] = None) -> str:
        """Take one global Chandy-Lamport snapshot; returns its id."""
        self.start()
        if initiator is None:
            initiator = self._live_subsystems()[0].name
        subsystem = self.subsystem(initiator)
        assert subsystem.node is not None
        # Settle all signal traffic first (recovering from any straggler),
        # so the only messages moving during the snapshot are the marks.
        self._pump_all()
        snapshot_id = self._managers[subsystem.node.name].initiate(subsystem)
        # Marks need only message pumping (no subsystem progress) to settle.
        # With a fault plan attached a mark can be parked for a few poll
        # ticks, so the settle budget widens and an idle pump round is not
        # final while the injector still holds traffic.
        injector = self.fault_injector
        ready = self.transport.ready
        for __ in range((2 * len(self.subsystems) + 2) * self._settle_slack):
            pumped = sum(node.pump() for node in self._ordered_nodes()
                         if ready(node.name))
            if self.registry.snapshots[snapshot_id].complete:
                break
            if pumped == 0 and \
                    (injector is None or injector.held_pending() == 0):
                break
        snap = self.registry.snapshots[snapshot_id]
        if not snap.complete:
            raise DeadlockError(
                f"snapshot {snapshot_id} did not complete: marks pending on "
                f"{[c.pending for c in snap.cuts.values()]}")
        self.switchpoints.save(snapshot_id)
        self._last_snapshot_time = self.global_time()
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

    def _snapshot_due(self) -> float:
        """When the next periodic snapshot is due (``inf``: not now —
        marks to a down node are lost, so wait for recovery)."""
        if self.snapshot_interval is None or self._down_nodes:
            return float("inf")
        return self._last_snapshot_time + self.snapshot_interval

    def _maybe_periodic_snapshot(self) -> None:
        due = self._snapshot_due()
        if self._reached(due):
            # No clock there (the next events lie beyond the instant)?
            # The cadence still moves on from it.
            between_events = self.global_time() < due
            self.snapshot()
            if between_events:
                self._last_snapshot_time = due

    def _next_service(self) -> float:
        """Every node's :attr:`~PiaNode.service_bound`: the earliest
        instant a round-boundary service is owed — periodic snapshot or
        scheduled crash.  Rounds are not lockstep (a one-way window can
        span the whole run), so the services cannot count on a round
        ending near their instant; windows stop at it and
        :meth:`_reached` fires them there.  (The series recorder is not
        one of them: attaching an observer must not change the run.)"""
        bound = self._snapshot_due()
        if self._pending_crashes:       # rare; asked on every advance
            bound = min(bound, self._next_crash())
        return bound

    def _has_optimism(self) -> bool:
        return any(ch.mode is ChannelMode.OPTIMISTIC
                   for ch in self.channels.values())

    def _grants_for(self, src: str, dst: str) -> List[Message]:
        if src in self._down_nodes or src in self._dead_nodes:
            return []
        return super()._grants_for(src, dst)

    def _should_refresh(self, name: str, desired: float) -> bool:
        """Throttle synchronous safe-time requests under batching.

        A freshly stalled subsystem does *not* call immediately: grants
        piggybacked on in-flight frames and the round-boundary pushes
        (consumption reports and satisfied wants) usually unblock it
        within a round or two for free.  Only a stall that survives
        ``_refresh_every`` rounds falls back to the explicit request —
        the liveness backstop.  Round counts are deterministic, so the
        throttle is too."""
        if not self.transport.batching:
            return True
        last = self._refresh_throttle.get(name)
        if last is None or last[0] != desired:
            self._refresh_throttle[name] = (desired, self.rounds)
            return False
        if self.rounds - last[1] < self._refresh_every:
            return False
        self._refresh_throttle[name] = (desired, self.rounds)
        return True

    def _round_flush(self) -> bool:
        """Round boundary under batching: ship every queued frame, then
        push standalone grants to peers recorded as stalled whose want
        the local floor has now passed.  Each push is one frame replacing
        the two-frame request round trip the peer would otherwise issue.
        Returns True if anything moved (counts as round progress)."""
        transport = self.transport
        acted = transport.batcher.queued() and transport.flush_batches() > 0
        down = self._down_nodes | self._dead_nodes
        for node in self._ordered_nodes():
            for dst, grants in sorted(node.stalled_grants(down).items()):
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
        self._arm_crashes()
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
        if self._node_order is None:
            self._node_order = [
                self.nodes[name] for name in sorted(self.nodes)
                if name not in self._down_nodes
                and name not in self._dead_nodes]
        return self._node_order

    def _ordered_subsystems(self) -> List[Subsystem]:
        if self._subsystem_order is None:
            self._subsystem_order = [
                ss for ss in self._live_subsystems()
                if ss.node is None or ss.node.name not in self._down_nodes]
        return self._subsystem_order

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
                    receiver = self._straggler_receiver(straggler)
                    self.recovery.recover(straggler, receiver)
                    # The snapshot cadence restarts from the rewound time,
                    # and the conservative window extends far enough for
                    # the next snapshot to land inside it — otherwise a
                    # sparse cadence lets the same race recur immediately.
                    self._last_snapshot_time = self.global_time()
                    self.recovery.conservative_until = max(
                        self.recovery.conservative_until,
                        straggler.straggler_time
                        + (self.snapshot_interval or 0.0))
                    pumped += 1
            total += pumped
            if pumped == 0:
                return total

    def _straggler_receiver(self, straggler: StragglerError) -> str:
        channel = self.channels.get(straggler.channel_id)
        if channel is None:
            raise ConfigurationError(
                f"straggler on unknown channel {straggler.channel_id!r}")
        # The straggler was raised by the endpoint whose subsystem had
        # already advanced past the message time.
        later = max(channel.endpoints.values(),
                    key=lambda ep: ep.subsystem.scheduler.now)
        return later.subsystem.name

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
                acted = self._fault_tick()
            progress = self._pump_all() > 0 or acted
            for subsystem in self._ordered_subsystems():
                self._pump_all()
                try:
                    count = subsystem.node.advance(
                        subsystem, until, throttle=self._should_refresh)
                except LinkDown as down:
                    self._absorb_link_down(down)
                    progress = True
                    continue
                if count:
                    dispatched += count
                    progress = True
                    self._poll_switchpoints()
            if self.transport.batching:
                progress = self._round_flush() or progress
            self._maybe_periodic_snapshot()
            series = self.telemetry.series
            if series is not None:
                # Round boundary = the sampling point: virtual-cadence
                # samples are deterministic here because the round
                # structure is.
                series.tick(self.global_time(), self.telemetry.registry)
            if not progress:
                idle_rounds += 1
                if self._down_nodes:
                    # Quiescence is an illusion while a node is down; keep
                    # ticking so the failure detector can confirm the loss.
                    continue
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
    # fault plane (crash, detect, recover/raise/drop)
    # ------------------------------------------------------------------
    def _fault_tick(self) -> bool:
        """One round of the fault machinery: heartbeats, scheduled
        crashes, suspicion, and the configured failure response.
        Returns True if anything happened (counts as round progress)."""
        detector = self.detector
        now_round = float(self.rounds)
        for name in self.nodes:
            if name not in self._down_nodes and name not in self._dead_nodes:
                detector.beat(name, now_round)
        acted = False
        for crash in self._due_crashes():
            self._crash_node(crash.node)
            acted = True
        for node in detector.suspects(now_round):
            if node in self._down_nodes:
                self._handle_node_failure(node)
                acted = True
        return acted

    def _crash_node(self, name: str) -> None:
        """Take ``name`` down: its traffic is lost until the failure
        detector notices and the failure policy responds."""
        if name in self._dead_nodes or name in self._down_nodes:
            return
        self._down_nodes.add(name)
        self._membership_changed()
        self._mark_down(name)

    def _absorb_link_down(self, down: LinkDown) -> None:
        """A send or call exhausted its retry budget.  If the destination
        is a known, still-live node, presume it dead and let the failure
        policy respond at the next fault tick; otherwise propagate."""
        if self.fault_injector is None:
            raise down
        dst = down.dst
        if dst in self._down_nodes or dst in self._dead_nodes:
            return    # already waiting on the failure detector
        if dst in self.nodes:
            self._crash_node(dst)
            return
        raise down

    def _handle_node_failure(self, node: str) -> None:
        if self.failure_policy == "raise":
            raise NodeFailure(
                f"node {node!r} failed at global time "
                f"{self.global_time():g} and recovery is disabled",
                node=node)
        if self.failure_policy == "drop-node":
            self._drop_node(node)
        else:
            self._recover_node(node)

    def _recover_node(self, node: str) -> None:
        """Restart ``node`` from the last consistent global snapshot."""
        completed = self.registry.completed()
        if not completed:
            raise NodeFailure(
                f"node {node!r} failed with no completed snapshot to "
                "recover from — set snapshot_interval", node=node)
        snap = completed[-1]
        self._down_nodes.discard(node)
        self._membership_changed()
        self.fault_injector.mark_up(node)
        self.recovery.rollback_to(snap)
        self._last_snapshot_time = self.global_time()
        self.detector.beat(node, float(self.rounds))
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("fault.node_recoveries")
            telemetry.trace(TraceKind.NODE_RECOVER, time=self.global_time(),
                            subject=node, snapshot_id=snap.snapshot_id,
                            restored_time=snap.max_time())

    def _drop_node(self, name: str) -> None:
        """Graceful degradation: cut the failed node out of the system
        and let the survivors finish without it."""
        self._down_nodes.discard(name)
        self._dead_nodes.add(name)
        self.detector.forget(name)
        node = self.nodes[name]
        self._membership_changed()
        for ss_name, subsystem in sorted(node.subsystems.items()):
            self._dead_subsystems.add(ss_name)
            for endpoint in subsystem.channels.values():
                endpoint.sever()
                endpoint.channel.other(ss_name).sever()
        self.transport.unregister(name)
        # Stray sends towards the dead node stay "lost", never errors, so
        # the node remains marked down; its parked deliveries are purged.
        self.fault_injector.purge_node(name)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("fault.nodes_dropped")
            telemetry.trace(TraceKind.NODE_DROP, time=self.global_time(),
                            subject=name)

    def _report_deadlock(self, until: float) -> None:
        detail = []
        for subsystem in self._ordered_subsystems():
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
