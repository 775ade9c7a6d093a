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

from typing import TYPE_CHECKING, Dict, List

from ..core.errors import CheckpointError
from ..observability import NULL_TELEMETRY, TraceKind
from .channel import StragglerError
from .migration import LocalCut, restore_node
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
        #: (the executor rewinds switchpoint state and the cut cadence).
        self.on_rollback = None
        #: Virtual time until which every channel must act conservatively.
        self.conservative_until = float("-inf")
        #: Telemetry sink (the owning CoSimulation attaches a live one).
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    def eligible(self, snap: GlobalSnapshot,
                 straggler: StragglerError) -> bool:
        """Can restoring ``snap`` recover from ``straggler``?"""
        if not snap.complete:
            return False
        cut = snap.cuts.get(straggler.receiver)
        if cut is None or cut.time > straggler.straggler_time:
            return False
        # A recorded message is re-injected at the cut it is filed in.
        return all(message.time >= filed.time
                   for filed in snap.cuts.values()
                   for messages in filed.recorded.values()
                   for message in messages)

    def choose_snapshot(self, straggler: StragglerError) -> GlobalSnapshot:
        candidates = [snap for snap in self.registry.completed()
                      if self.eligible(snap, straggler)]
        if not candidates:
            raise CheckpointError(
                f"no completed snapshot can recover the straggler at "
                f"{straggler.straggler_time:g} received by "
                f"{straggler.receiver!r} — take snapshots more often "
                "(snapshot_interval)")
        return candidates[-1]       # the latest eligible one

    # ------------------------------------------------------------------
    def recover(self, straggler: StragglerError) -> GlobalSnapshot:
        """Pick a snapshot and roll the whole system back to it (the
        executor sets the conservative window that follows)."""
        snap = self.choose_snapshot(straggler)
        self.rollback_to(snap)
        self.rollbacks.append((straggler.straggler_time, snap.snapshot_id,
                               snap.max_time()))
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("rollback.count")
            cause = straggler.cause
            extra = {"cause": cause} if cause is not None else {}
            telemetry.trace(TraceKind.ROLLBACK,
                            time=straggler.straggler_time,
                            subject=straggler.receiver,
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
        # 2. Later snapshots now describe abandoned futures; one still
        #    open lost its marks to the flush and can never complete.
        for other_id in list(self.registry.snapshots):
            other = self.registry.snapshots[other_id]
            if other is not snap and (not other.complete
                                      or other.max_time() > snap.max_time()):
                self.registry.drop(other_id)
        # 3. Every node restores its images and re-injects its channel state.
        for node, cuts in per_node.items():
            restore_node(node, cuts)
        if self.on_rollback is not None:
            self.on_rollback(snap.snapshot_id)

    # ------------------------------------------------------------------
    def in_conservative_window(self, global_time: float) -> bool:
        return global_time <= self.conservative_until
