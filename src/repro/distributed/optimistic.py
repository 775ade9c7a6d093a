"""Optimistic channels: run ahead, recover from stragglers (paper 2.2.2.2).

"Subsystems linked by optimistic channels are not restricted from updating
their virtual time beyond the safe time of the subsystem on the opposite
side of the channel. ... This requires each subsystem to occasionally save
state so that it can fully recover if a consistency error occurs."

Recovery restores a *completed* Chandy-Lamport snapshot (never anti-
messages — the paper recovers through its checkpoint machinery):

1. every in-flight message is dropped — a snapshot being complete implies,
   by channel FIFO, that everything in flight was sent *after* its
   sender's cut, so re-execution will regenerate it;
2. every subsystem restores its local checkpoint for the snapshot;
3. the messages recorded as channel state are re-injected, each at the
   node it was recorded on (steps 2–3 are
   :func:`~repro.distributed.migration.restore_node`, per node);
4. the system runs *conservatively* until it passes the straggler's time,
   which guarantees the same straggler cannot recur, then optimism
   resumes.

A snapshot is eligible only if the straggler's receiver had not yet passed
the straggler time at its cut, and no recorded message would itself be a
straggler after the restore; otherwise recovery escalates to an earlier
snapshot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.errors import CheckpointError, SimulationError
from ..observability import NULL_TELEMETRY, TraceKind
from .channel import StragglerError
from .migration import LocalCut, resent_counts, restore_node
from .snapshot import GlobalSnapshot, SnapshotRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..core.subsystem import Subsystem
    from .node import PiaNode


class RecoveryManager:
    """Coordinated rollback across every subsystem of a co-simulation."""

    def __init__(self, subsystems: Dict[str, "Subsystem"], transport,
                 registry: SnapshotRegistry) -> None:
        self.subsystems = subsystems
        self.transport = transport
        self.registry = registry
        #: Completed rollbacks, as (straggler_time, snapshot_id, restored_time).
        self.rollbacks: List[tuple] = []
        #: Called with the restored snapshot's id after every rollback
        #: (the executor uses it to rewind switchpoint state).
        self.on_rollback = None
        #: Virtual time until which every channel must act conservatively.
        self.conservative_until = float("-inf")
        #: Telemetry sink (the owning CoSimulation attaches a live one).
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    def eligible(self, snap: GlobalSnapshot, straggler: StragglerError,
                 receiver: str) -> bool:
        """Can restoring ``snap`` recover from ``straggler``?"""
        if not snap.complete:
            return False
        cut = snap.cuts.get(receiver)
        if cut is None or cut.time > straggler.straggler_time:
            return False
        for message in snap.recorded_messages():
            target = self._receiver_of(message)
            if target is None:
                return False
            if message.time < snap.time_of(target):
                return False
        return True

    def _receiver_of(self, message) -> Optional[str]:
        for name, subsystem in self.subsystems.items():
            endpoint = subsystem.channels.get(message.channel)
            if endpoint is not None and endpoint.node.name == message.dst:
                return name
        return None

    def choose_snapshot(self, straggler: StragglerError,
                        receiver: str) -> GlobalSnapshot:
        candidates = [snap for snap in self.registry.completed()
                      if self.eligible(snap, straggler, receiver)]
        if not candidates:
            raise CheckpointError(
                f"no completed snapshot can recover the straggler at "
                f"{straggler.straggler_time:g} received by {receiver!r} — "
                "take snapshots more often (snapshot_interval)")
        return candidates[-1]       # the latest eligible one

    # ------------------------------------------------------------------
    def recover(self, straggler: StragglerError, receiver: str) -> GlobalSnapshot:
        """Pick a snapshot, roll the whole system back to it, re-arm."""
        snap = self.choose_snapshot(straggler, receiver)
        self.rollback_to(snap)
        self.conservative_until = max(self.conservative_until,
                                      straggler.straggler_time)
        self.rollbacks.append((straggler.straggler_time, snap.snapshot_id,
                               snap.max_time()))
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("rollback.count")
            cause = getattr(straggler, "cause", None)
            extra = {"cause": cause[1], "hop": cause[3]} \
                if cause is not None else {}
            telemetry.trace(TraceKind.ROLLBACK,
                            time=straggler.straggler_time, subject=receiver,
                            snapshot_id=snap.snapshot_id,
                            restored_time=snap.max_time(), **extra)
        return snap

    def rollback_to(self, snap: GlobalSnapshot) -> None:
        if not snap.complete:
            raise CheckpointError(
                f"snapshot {snap.snapshot_id} is incomplete; cannot restore")
        # Each node's share of the cut: its subsystems' images and the
        # channel state recorded at them.
        per_node: Dict["PiaNode", Dict[str, LocalCut]] = {}
        for name, cut in snap.cuts.items():
            subsystem = self.subsystems.get(name)
            if subsystem is None:
                raise CheckpointError(
                    f"snapshot references unknown subsystem {name!r}")
            per_node.setdefault(subsystem.node, {})[name] = (
                subsystem.checkpoints.image(cut.checkpoint_id), cut.recorded)
        # 1. Everything in flight postdates the cut: drop it.
        dropped = self.transport.flush()
        self.telemetry.count("rollback.messages_dropped", dropped)
        # 2. Later snapshots now describe abandoned futures.
        for other_id in list(self.registry.snapshots):
            other = self.registry.snapshots[other_id]
            if other is not snap and other.max_time() > snap.max_time():
                self.registry.drop(other_id)
        # 3. Every node restores its images and re-injects its channel state.
        resent = resent_counts(local for cuts in per_node.values()
                               for local in cuts.values())
        for node, cuts in per_node.items():
            restore_node(node, cuts, resent)
        if self.on_rollback is not None:
            self.on_rollback(snap.snapshot_id)

    # ------------------------------------------------------------------
    def in_conservative_window(self, global_time: float) -> bool:
        return global_time <= self.conservative_until
