"""Live subsystem migration and failover images (paper sections 2.2.3, 2.4).

The multiprocess backplane moves subsystems between worker processes in
two situations: an explicit :meth:`MultiprocessCoSimulation.migrate`
request, and automatic failover when the supervisor's heartbeat detector
confirms a dead worker.  Both paths ship the same artefact — a
:class:`NodeArchive` built from a completed Chandy-Lamport cut — to the
adopting worker, which reconstructs the subsystems from their factory
specs (routing file-backed specs through the
:class:`~repro.loader.ComponentLoader`) and reinstates the images.

A :class:`~repro.core.checkpoint.CheckpointImage` keeps its queued events
by name, so the image a store holds *is* the image that travels: an
archive is the node's images plus the channel state its cuts recorded,
pickled as they are.  The one thing that cannot leave a process is an
event whose target has no name — a ``CONTROL`` callable, an orphan port —
and :func:`archive_node` refuses it with a
:class:`~repro.core.errors.MigrationError`, not a crash.

:func:`restore_node` is the one way back to a cut, for every executor:
optimistic recovery, crash recovery and the debugger's rewind reach it
through :meth:`RecoveryManager.rollback_to` after its transport flush, a
worker's ``_restore`` (failover, live migration) after its epoch fence.
DESIGN.md §5 "One way back to a cut" says what each caller owns.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..core.checkpoint import CheckpointImage, reinstate
from ..core.errors import MigrationError

if TYPE_CHECKING:  # pragma: no cover
    from ..transport.message import Message

#: One subsystem's share of a restore point: its image and the in-flight
#: messages its cut recorded (channel id -> messages, destined for it).
LocalCut = Tuple[CheckpointImage, Dict[str, List["Message"]]]


# ----------------------------------------------------------------------
# per-node archives
# ----------------------------------------------------------------------
@dataclass
class NodeArchive:
    """Everything one node contributes to a global restore point."""

    node: str
    snapshot_id: str
    #: subsystem name -> (image, recorded channel state).
    cuts: Dict[str, LocalCut] = field(default_factory=dict)
    #: The node's span-minter ordinal streams at archive time, so a moved
    #: node's deterministic span ids continue where they left off.
    minter_ordinals: Dict[str, int] = field(default_factory=dict)

    def storage_bytes(self) -> int:
        """Pickled size of what a restore ships — the unit the migration
        pause / snapshot-size study in EXPERIMENTS.md measures."""
        return len(pickle.dumps(self.cuts, protocol=pickle.HIGHEST_PROTOCOL))


def archive_node(node, registry, snapshot_id: str,
                 minter_ordinals: Optional[Dict[str, int]] = None
                 ) -> NodeArchive:
    """Build the :class:`NodeArchive` for ``node``'s completed local cuts.

    ``registry`` is the node's :class:`SnapshotRegistry`; every local
    subsystem must already hold a complete cut for ``snapshot_id``.
    """
    snap = registry.snapshots.get(snapshot_id)
    if snap is None:
        raise MigrationError(
            f"{node.name}: no cut data for snapshot {snapshot_id!r}",
            node=node.name)
    archive = NodeArchive(node=node.name, snapshot_id=snapshot_id,
                          minter_ordinals=dict(minter_ordinals or {}))
    for name, subsystem in node.subsystems.items():
        cut = snap.cuts.get(name)
        if cut is None or not cut.complete:
            raise MigrationError(
                f"{node.name}: cut of {name!r} incomplete for "
                f"snapshot {snapshot_id!r}", node=node.name)
        image = subsystem.checkpoints.image(cut.checkpoint_id)
        unnamed = image.unnamed_targets()
        if unnamed:
            kind, target = unnamed[0]
            raise MigrationError(
                f"{name}: queued {kind.value} event targets {target!r}, a "
                f"live object with no name to travel by (a CONTROL callable "
                f"or an orphan port); its state cannot leave the process",
                node=node.name)
        archive.cuts[name] = (image, cut.recorded)
    return archive


def resent_counts(cuts: Iterable[LocalCut]) -> Dict[Tuple[str, str], int]:
    """``(channel_id, dst_node) -> count`` of recorded in-flight messages
    over every cut of a restore point.

    The counts pre-seed every endpoint's ``forwarded`` ledger on restore:
    the sender's counter must equal the number of copies the receiver
    will re-inject, so the first post-restore safe-time exchange balances.
    """
    counts: Dict[Tuple[str, str], int] = {}
    for __, recorded in cuts:
        for channel_id, messages in recorded.items():
            for message in messages:
                key = (channel_id, message.dst)
                counts[key] = counts.get(key, 0) + 1
    return counts


def restore_node(node, cuts: Dict[str, LocalCut],
                 resent: Dict[Tuple[str, str], int]) -> int:
    """Put ``node`` back at its ``cuts`` and re-align its ledgers.

    The caller has already made the wire empty of the discarded world
    (a flush; across processes, an epoch fence first).  Returns the number
    of recorded in-flight messages re-injected locally.  Recorded messages
    were captured at their *destination* node's cut, so each node
    re-injects exactly the ones destined for itself — no wire traffic, no
    second charge, no second roll of a fault plan, no double delivery.
    """
    for name, (image, __) in cuts.items():
        try:
            subsystem = node.subsystems[name]
        except KeyError:
            raise MigrationError(
                f"{node.name}: restore payload references unknown "
                f"subsystem {name!r}", node=node.name) from None
        reinstate(subsystem, image)
        # All safe-time state is void after a global rewind.  The message
        # counters restart aligned with the re-injected channel states:
        # this endpoint's sends being re-injected at the peer count as
        # already forwarded; its own receive counter returns to zero and
        # climbs as the peer's recorded messages re-arrive.
        for channel_id, endpoint in subsystem.channels.items():
            endpoint.reset_sync_state(
                forwarded=resent.get((channel_id, endpoint.peer_node), 0),
                injected=0)
    # Re-inject after *every* local ledger is reset: a recorded message's
    # dispatch bumps its channel's ``injected`` count.
    replayed = 0
    for __, recorded in cuts.values():
        for messages in recorded.values():
            for message in messages:
                node.dispatch(message)
                replayed += 1
    return replayed


# ----------------------------------------------------------------------
# run-report records
# ----------------------------------------------------------------------
@dataclass
class MigrationRecord:
    """One migration or failover, as reported in ``RunReport.migrations``."""

    kind: str                    # "failover" | "migrate"
    node: str                    # the node that moved
    reason: str                  # "worker-death", "heartbeat", "requested"...
    epoch: int                   # the migration epoch the move started
    snapshot_id: str             # the restore point used
    at_global_time: float        # global virtual time when the move began
    wall_pause: float = 0.0      # seconds the run was stopped end to end
    snapshot_bytes: int = 0      # pickled size of the shipped archives
    replayed_messages: int = 0   # recorded in-flight messages re-injected

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "node": self.node, "reason": self.reason,
            "epoch": self.epoch, "snapshot_id": self.snapshot_id,
            "at_global_time": self.at_global_time,
            "wall_pause": self.wall_pause,
            "snapshot_bytes": self.snapshot_bytes,
            "replayed_messages": self.replayed_messages,
        }
