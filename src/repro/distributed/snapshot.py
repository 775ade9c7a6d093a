"""Distributed checkpoints via the Chandy-Lamport algorithm (paper 2.2.3).

"Since all channels between subsystems are FIFO channels, we can solve this
problem with the Chandy-Lamport algorithm.  After a subsystem receives (or
generates) a checkpoint request, it performs a local checkpoint and
transmits a mark on all of its outgoing channels.  Upon receipt of a mark,
a subsystem immediately performs a local checkpoint, before receiving
anything else on that same channel. ... each mark contains an identifier
... such that a subsystem can ignore marks that have the same identifier
as checkpoints already performed."

Channels here are bidirectional, so each direction is treated as its own
FIFO channel: a cut sends a mark to every peer and expects one back from
every peer; signals arriving on a channel between the local cut and that
channel's mark are recorded as the channel's state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.errors import CheckpointError
from ..observability import NULL_TELEMETRY, TraceKind
from ..transport.message import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from ..core.subsystem import Subsystem
    from .node import PiaNode

@dataclass
class SubsystemCut:
    """One subsystem's contribution to a global snapshot."""

    snapshot_id: str
    subsystem: str
    checkpoint_id: int
    time: float
    #: channel id -> messages recorded as in-flight channel state.
    recorded: Dict[str, List[Message]] = field(default_factory=dict)
    #: channels whose closing mark has not arrived yet.
    pending: set = field(default_factory=set)

    @property
    def complete(self) -> bool:
        return not self.pending


@dataclass
class GlobalSnapshot:
    """The assembled consistent cut across every subsystem."""

    snapshot_id: str
    cuts: Dict[str, SubsystemCut] = field(default_factory=dict)
    expected: set = field(default_factory=set)

    @property
    def complete(self) -> bool:
        return (set(self.cuts) == self.expected
                and all(cut.complete for cut in self.cuts.values()))

    def time_of(self, subsystem: str) -> float:
        return self.cuts[subsystem].time

    def max_time(self) -> float:
        return max((cut.time for cut in self.cuts.values()), default=0.0)

    def recorded_messages(self) -> List[Message]:
        return [message for cut in self.cuts.values()
                for recorded in cut.recorded.values() for message in recorded]


class SnapshotRegistry:
    """Shared, executor-owned registry of in-progress and completed cuts."""

    def __init__(self) -> None:
        self.snapshots: Dict[str, GlobalSnapshot] = {}
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        """A fresh snapshot id, numbered per registry — so two runs in
        one process cut under the same ids, and send the same bytes."""
        return f"snap-{next(self._ids)}"

    def ensure(self, snapshot_id: str, expected) -> GlobalSnapshot:
        snap = self.snapshots.get(snapshot_id)
        if snap is None:
            snap = GlobalSnapshot(snapshot_id, expected=set(expected))
            self.snapshots[snapshot_id] = snap
        return snap

    def completed(self) -> List[GlobalSnapshot]:
        done = [s for s in self.snapshots.values() if s.complete]
        done.sort(key=lambda s: s.max_time())
        return done

    def drop(self, snapshot_id: str) -> None:
        self.snapshots.pop(snapshot_id, None)


class SnapshotManager:
    """Per-node participant in the marker algorithm."""

    def __init__(self, node: "PiaNode", registry: SnapshotRegistry,
                 expected_subsystems) -> None:
        self.node = node
        self.registry = registry
        #: Names of every subsystem in the whole system (for completion).
        self.expected_subsystems = expected_subsystems
        self.marks_sent = 0
        self.marks_received = 0
        #: Telemetry sink (the owning CoSimulation attaches a live one).
        self.telemetry = NULL_TELEMETRY
        #: This node's cuts with a channel still recording (oldest first).
        self.open_cuts: List[SubsystemCut] = []
        node.handlers[MessageKind.MARK] = self.on_mark

    # ------------------------------------------------------------------
    def initiate(self, subsystem: "Subsystem",
                 snapshot_id: Optional[str] = None) -> str:
        """Generate a checkpoint request at ``subsystem`` (paper: a
        subsystem "receives (or generates) a checkpoint request")."""
        return self._local_cut(
            subsystem, snapshot_id or self.registry.new_id()).snapshot_id

    def _local_cut(self, subsystem: "Subsystem",
                   snapshot_id: str) -> SubsystemCut:
        snap = self.registry.ensure(snapshot_id, self.expected_subsystems())
        if subsystem.name in snap.cuts:
            return snap.cuts[subsystem.name]    # already performed: ignore
        checkpoint_id = subsystem.request_checkpoint(
            label=f"{snapshot_id}@{subsystem.name}")
        cut = SubsystemCut(snapshot_id, subsystem.name, checkpoint_id,
                           subsystem.scheduler.now)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("snapshot.cuts")
            telemetry.trace(TraceKind.SNAPSHOT_CUT,
                            time=subsystem.scheduler.now,
                            subject=subsystem.name,
                            snapshot_id=snapshot_id,
                            checkpoint_id=checkpoint_id)
        for channel_id, endpoint in subsystem.channels.items():
            cut.recorded[channel_id] = []
            cut.pending.add(channel_id)
            self.marks_sent += 1
            telemetry.count("snapshot.marks_sent")
            self.node.transport.send(Message(
                kind=MessageKind.MARK,
                src=self.node.name,
                dst=endpoint.peer_node,
                channel=channel_id,
                payload=snapshot_id,
            ))
        snap.cuts[subsystem.name] = cut
        if cut.pending:
            self._record(cut)
        return cut

    # ------------------------------------------------------------------
    def on_mark(self, message: Message) -> None:
        snapshot_id = message.payload
        self.marks_received += 1
        self.telemetry.count("snapshot.marks_received")
        endpoint = self.node._endpoint_for(message.channel)
        subsystem = endpoint.subsystem
        # First mark (or request) for this identifier: checkpoint now,
        # before receiving anything else on this channel.
        cut = self._local_cut(subsystem, snapshot_id)
        # The mark closes this channel's recording window.
        if message.channel in cut.pending:
            cut.pending.discard(message.channel)
            if not cut.pending:
                self._stop_recording(cut)

    def _record(self, cut: SubsystemCut) -> None:
        """Observe the node's signals until ``cut``'s last mark arrives."""
        with self.node.lock:
            if not self.open_cuts:
                self.node.signal_observers.append(self.observe_signal)
            self.open_cuts.append(cut)

    def _stop_recording(self, cut: SubsystemCut) -> None:
        with self.node.lock:
            self.open_cuts = [other for other in self.open_cuts
                              if other is not cut]
            if not self.open_cuts:
                self.node.signal_observers.remove(self.observe_signal)

    def observe_signal(self, endpoint, message: Message) -> None:
        """Record ``message``, arriving at ``endpoint``, in each open cut
        of its subsystem still waiting for that channel's mark; a cut the
        registry no longer holds (a rollback, a restore) leaves."""
        channel = message.channel
        name = endpoint.subsystem.name
        snapshots = self.registry.snapshots
        for cut in self.open_cuts:
            snap = snapshots.get(cut.snapshot_id)
            if snap is None or snap.cuts.get(cut.subsystem) is not cut:
                self._stop_recording(cut)
            elif cut.subsystem == name and channel in cut.pending:
                cut.recorded[channel].append(message)
