"""Live subsystem migration and failover images (paper sections 2.2.3, 2.4).

The multiprocess backplane moves subsystems between worker processes in
two situations: an explicit :meth:`MultiprocessCoSimulation.migrate`
request, and automatic failover when the supervisor's heartbeat detector
confirms a dead worker.  Both paths ship the same artefact — a
:class:`NodeArchive` built from a completed Chandy-Lamport cut — to the
adopting worker, which reconstructs the subsystems from their factory
specs (routing file-backed specs through the
:class:`~repro.loader.ComponentLoader`) and reinstates the images.

A :class:`~repro.core.checkpoint.CheckpointImage` is *not* portable
across processes: its queued events target live :class:`Port` and
:class:`Component` objects.  :func:`encode_image` rewrites every event
target into a by-name form (``("port", owner, name)`` /
``("component", name)``) and :func:`decode_image` resolves the names
against the rebuilt subsystem on the destination worker.  ``CONTROL``
events target arbitrary callables with no by-name encoding, so a
subsystem with a queued ``CONTROL`` event cannot be moved — that is a
:class:`~repro.core.errors.MigrationError`, not a crash.

Recorded in-flight channel messages ride alongside the images.  Restore
mirrors the proven single-process rollback recipe
(:meth:`RecoveryManager.rollback_to`): flush the transport, reinstate
the images, void every endpoint's safe-time ledger via
``reset_sync_state`` with ``forwarded`` pre-seeded to the number of
recorded messages the peer will re-deliver, then re-inject the recorded
messages on the destination node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.checkpoint import CheckpointImage, NetState, reinstate
from ..core.errors import MigrationError
from ..core.events import Event, EventKind
from ..core.fastcopy import smart_copy

if TYPE_CHECKING:  # pragma: no cover
    from ..core.subsystem import Subsystem
    from ..transport.message import Message
    from .snapshot import GlobalSnapshot


# ----------------------------------------------------------------------
# portable checkpoint images
# ----------------------------------------------------------------------
def _encode_event(event: Event, subsystem_name: str) -> tuple:
    """One queued event in by-name form (see module docstring)."""
    if event.kind in (EventKind.SIGNAL, EventKind.INTERRUPT):
        port = event.target
        owner = getattr(port, "owner", None)
        if owner is None:
            raise MigrationError(
                f"{subsystem_name}: queued {event.kind.value} event targets "
                f"an orphan port; its state cannot be made portable")
        target = ("port", owner.name, port.name)
    elif event.kind is EventKind.WAKE:
        target = ("component", event.target.name)
    else:
        raise MigrationError(
            f"{subsystem_name}: queued {event.kind.value} event targets a "
            f"live callable that has no by-name encoding")
    return (event.ts, event.kind.value, target, smart_copy(event.payload),
            event.token, event.cause)


def _decode_event(encoded: tuple, subsystem: "Subsystem") -> Event:
    ts, kind_value, target_ref, payload, token, cause = encoded
    kind = EventKind(kind_value)
    shape = target_ref[0]
    if shape == "port":
        __, owner_name, port_name = target_ref
        try:
            target = subsystem.components[owner_name].ports[port_name]
        except KeyError:
            raise MigrationError(
                f"{subsystem.name}: restored event references unknown "
                f"port {owner_name}.{port_name}") from None
    else:
        try:
            target = subsystem.components[target_ref[1]]
        except KeyError:
            raise MigrationError(
                f"{subsystem.name}: restored event references unknown "
                f"component {target_ref[1]!r}") from None
    return Event(ts, kind, target, payload, token, cause)


@dataclass
class PortableImage:
    """A :class:`CheckpointImage` with every live reference made by-name,
    so it pickles cleanly across process boundaries."""

    subsystem: str
    checkpoint_id: int
    label: Optional[str]
    time: float
    started: bool
    dispatched: int
    stalls: int
    events: List[tuple] = field(default_factory=list)
    components: dict = field(default_factory=dict)   # name -> ComponentSnapshot
    nets: Dict[str, NetState] = field(default_factory=dict)
    #: channel id -> in-flight messages recorded by the Chandy-Lamport cut.
    recorded: Dict[str, List["Message"]] = field(default_factory=dict)

    def storage_bytes(self) -> int:
        """Pickled size of this image — the unit the migration pause /
        snapshot-size study in EXPERIMENTS.md measures."""
        import pickle
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


def encode_image(subsystem: "Subsystem", image: CheckpointImage,
                 recorded: Optional[Dict[str, List["Message"]]] = None
                 ) -> PortableImage:
    """Rewrite ``image`` into its process-portable form."""
    return PortableImage(
        subsystem=subsystem.name,
        checkpoint_id=image.checkpoint_id,
        label=image.label,
        time=image.time,
        started=image.started,
        dispatched=image.dispatched,
        stalls=image.stalls,
        events=[_encode_event(event, subsystem.name)
                for event in image.events],
        components=dict(image.components),
        nets=dict(image.nets),
        recorded={cid: list(msgs)
                  for cid, msgs in (recorded or {}).items()},
    )


def decode_image(subsystem: "Subsystem", portable: PortableImage) -> None:
    """Reinstate ``portable`` into the (freshly built or live) ``subsystem``."""
    if portable.subsystem != subsystem.name:
        raise MigrationError(
            f"image of {portable.subsystem!r} applied to {subsystem.name!r}")
    image = CheckpointImage(
        checkpoint_id=portable.checkpoint_id,
        label=portable.label,
        time=portable.time,
        events=[_decode_event(encoded, subsystem)
                for encoded in portable.events],
        components=portable.components,
        nets=portable.nets,
        started=portable.started,
        dispatched=portable.dispatched,
        stalls=portable.stalls,
    )
    reinstate(subsystem, image)


# ----------------------------------------------------------------------
# per-node archives
# ----------------------------------------------------------------------
@dataclass
class NodeArchive:
    """Everything one node contributes to a global restore point."""

    node: str
    snapshot_id: str
    #: subsystem name -> portable image (with its recorded channel state).
    images: Dict[str, PortableImage] = field(default_factory=dict)
    #: The node's span-minter ordinal streams at archive time, so a moved
    #: node's deterministic span ids continue where they left off.
    minter_ordinals: Dict[str, int] = field(default_factory=dict)

    def storage_bytes(self) -> int:
        return sum(image.storage_bytes() for image in self.images.values())


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
        archive.images[name] = encode_image(subsystem, image, cut.recorded)
    return archive


def resent_counts(archives) -> Dict[Tuple[str, str], int]:
    """``(channel_id, dst_node) -> count`` of recorded in-flight messages.

    The counts pre-seed every endpoint's ``forwarded`` ledger on restore
    (mirroring ``RecoveryManager.rollback_to``): the sender's counter
    must equal the number of copies the receiver will re-inject, so the
    first post-restore safe-time exchange balances.
    """
    counts: Dict[Tuple[str, str], int] = {}
    for archive in archives:
        for image in archive.images.values():
            for channel_id, messages in image.recorded.items():
                for message in messages:
                    key = (channel_id, message.dst)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def restore_node(node, images: Dict[str, PortableImage],
                 resent: Dict[Tuple[str, str], int]) -> int:
    """Reinstate ``images`` into ``node`` and re-align its ledgers.

    The caller has already fenced the transport (epoch bump) and flushed
    its queues.  Returns the number of recorded in-flight messages
    re-injected locally.  Recorded messages were captured at their
    *destination* node's cut, so each node re-injects exactly the ones
    destined for itself — no wire traffic, no double delivery.
    """
    replayed = 0
    for name, portable in images.items():
        try:
            subsystem = node.subsystems[name]
        except KeyError:
            raise MigrationError(
                f"{node.name}: restore payload references unknown "
                f"subsystem {name!r}", node=node.name) from None
        decode_image(subsystem, portable)
        for channel_id, endpoint in subsystem.channels.items():
            endpoint.reset_sync_state(
                forwarded=resent.get((channel_id, endpoint.peer_node), 0),
                injected=0)
    # Re-inject after *every* local ledger is reset: a recorded message's
    # dispatch bumps its channel's ``injected`` count.
    for name, portable in images.items():
        for messages in portable.recorded.values():
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
