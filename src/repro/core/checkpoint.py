"""Checkpoint and restore facilities (paper section 2.1.2).

A :class:`CheckpointImage` captures a whole subsystem: virtual time, the
pending event queue, every component image and every net's last value.  The
paper's rule — *each component saves a checkpoint before receiving any
messages after a checkpoint request* — prevents the domino effect [13]; in
this implementation component activations are atomic (run-to-block), so a
checkpoint taken between event dispatches is automatically at such a
boundary for every component at once.

:class:`IncrementalCheckpointStore` implements the paper's planned future
work: images after the first store only what changed (attribute diffs and
replay-log suffixes), and restores reconstruct the full image by walking
the chain from the last full checkpoint.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..observability import NULL_TELEMETRY, TraceKind
from .component import ComponentSnapshot
from .errors import CheckpointError, NoSuchCheckpointError
from .events import Event, EventKind
from .fastcopy import is_immutable, smart_copy

if TYPE_CHECKING:  # pragma: no cover
    from .subsystem import Subsystem


def _measure(obj: Any) -> int:
    """Pickled size of ``obj``, falling back to ``repr`` for live objects."""
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return len(repr(obj).encode())


def _snapshot_content(snap: "ComponentSnapshot") -> tuple:
    """The persistable data content of one component snapshot."""
    return ((snap.name, snap.local_time, snap.runlevel, snap.finished),
            snap.attrs, snap.port_buffers, snap.interface_states, snap.extra)


def _measure_snapshot(snap: "ComponentSnapshot") -> int:
    return sum(_measure(piece) for piece in _snapshot_content(snap))


def _event_content(entry: tuple) -> tuple:
    """The data content of one queued event of an image (its target is a
    name, and its trace context is not simulation state)."""
    ts, kind, __, payload, token, __ = entry
    return (ts, kind.value, payload, token)


def _by_name(event: Event) -> tuple:
    """One queued event as an image keeps it: all six fields, the target
    by name — ``("port", owner, name)`` for ``SIGNAL``/``INTERRUPT``,
    ``("component", name)`` for ``WAKE``.  A ``CONTROL`` callable or an
    orphan port has no name and stays the live object: such an image still
    restores in this process, and is what ``archive_node`` refuses."""
    kind, target = event.kind, event.target
    if kind is EventKind.WAKE:
        target = ("component", target.name)
    elif kind is not EventKind.CONTROL:
        owner = getattr(target, "owner", None)
        if owner is not None:
            target = ("port", owner.name, target.name)
    return (event.ts, kind, target, smart_copy(event.payload), event.token,
            event.cause)


def _resolve(subsystem: "Subsystem", target: Any) -> Any:
    """The live object a by-name ``target`` means in ``subsystem``."""
    if type(target) is not tuple:
        return target
    try:
        component = subsystem.components[target[1]]
    except KeyError:
        raise CheckpointError(
            f"{subsystem.name}: checkpoint references unknown component "
            f"{target[1]!r}") from None
    if target[0] == "component":
        return component
    try:
        return component.ports[target[2]]
    except KeyError:
        raise CheckpointError(
            f"{subsystem.name}: checkpoint references unknown port "
            f"{target[1]}.{target[2]}") from None


@dataclass
class NetState:
    value: Any
    last_change: float
    posts: int


@dataclass
class CheckpointImage:
    """A restorable full image of one subsystem.

    It holds no live reference (but see :func:`_by_name`), so it pickles
    across ``spawn`` and reinstates into a freshly built subsystem of the
    same name exactly as into the one it was taken from, on either
    event-queue backend.
    """

    checkpoint_id: int
    label: Optional[str]
    time: float
    #: The queue in delivery order, one :func:`_by_name` tuple per event.
    events: list[tuple] = field(default_factory=list)
    components: dict[str, ComponentSnapshot] = field(default_factory=dict)
    nets: dict[str, NetState] = field(default_factory=dict)
    #: Whether the subsystem had started when the image was taken.
    started: bool = True
    #: Scheduler dispatch/stall counters at capture time.  Restored on
    #: reinstate so post-rollback (and post-migration) runs report the
    #: same dispatch totals as an uninterrupted run.
    dispatched: int = 0
    stalls: int = 0
    #: ``Scheduler.reached``/``before`` at capture time; a reinstate keeps
    #: the higher pair of the image's and the live subsystem's, so a
    #: rollback never lowers them and a fresh subsystem inherits them.
    reached: float = 0.0
    before: float = 0.0
    #: The subsystem the image was taken from; :func:`reinstate` refuses
    #: any other.
    subsystem: str = ""
    #: Cached :meth:`storage_bytes` result — an image never changes after
    #: capture, so its size is measured at most once.
    _storage_bytes: Optional[int] = field(
        default=None, repr=False, compare=False)

    def unnamed_targets(self) -> list[tuple]:
        """``(kind, target)`` of every queued event whose target is a live
        object — what keeps this image from leaving the process."""
        return [(kind, target) for __, kind, target, *__ in self.events
                if type(target) is not tuple]

    def storage_bytes(self) -> int:
        """Approximate persisted size, for the incremental-checkpoint study.

        Only the data content is measured: names, trace context and the
        bookkeeping counters are left out, as they always were (the size of
        an image *as shipped* is ``NodeArchive.storage_bytes``).  The whole
        image is pickled in one pass (not once per piece) and the result
        cached per image.
        """
        if self._storage_bytes is None:
            content = (self.time,
                       [_event_content(e) for e in self.events],
                       [_snapshot_content(snap)
                        for snap in self.components.values()],
                       self.nets)
            try:
                self._storage_bytes = len(pickle.dumps(
                    content, protocol=pickle.HIGHEST_PROTOCOL))
            except Exception:
                # Some piece holds a live object pickle rejects; fall back
                # to per-piece measurement with its repr() escape hatch.
                self._storage_bytes = (
                    _measure(self.time)
                    + sum(_measure(_event_content(e)) for e in self.events)
                    + sum(_measure_snapshot(snap)
                          for snap in self.components.values())
                    + _measure(self.nets))
        return self._storage_bytes


def capture(subsystem: "Subsystem", checkpoint_id: int,
            label: Optional[str] = None) -> CheckpointImage:
    """Snapshot ``subsystem`` into a :class:`CheckpointImage`."""
    image = CheckpointImage(checkpoint_id, label, subsystem.scheduler.now,
                            started=subsystem._started,
                            dispatched=subsystem.scheduler.dispatched,
                            stalls=subsystem.scheduler.stalls,
                            reached=subsystem.scheduler.reached,
                            before=subsystem.scheduler.before,
                            subsystem=subsystem.name)
    image.events = [_by_name(evt)
                    for evt in subsystem.scheduler.queue.snapshot()]
    for name, component in subsystem.components.items():
        image.components[name] = component.snapshot()
    for name, net in subsystem.nets.items():
        image.nets[name] = NetState(smart_copy(net.value),
                                    net.last_change, net.posts)
    return image


def reinstate(subsystem: "Subsystem", image: CheckpointImage) -> None:
    """Roll ``subsystem`` — the live one ``image`` was taken from, or a
    freshly built one of the same name — back to ``image``."""
    if image.subsystem != subsystem.name:
        raise CheckpointError(
            f"image of {image.subsystem!r} applied to {subsystem.name!r}")
    # Resolved first: an image this subsystem cannot hold is refused
    # before anything of it is overwritten.
    events = [
        Event(ts, kind, _resolve(subsystem, target), smart_copy(payload),
              token, cause)
        for ts, kind, target, payload, token, cause in image.events
    ]
    scheduler = subsystem.scheduler
    rewound_from = scheduler.now
    if (image.reached, image.before) > (scheduler.reached, scheduler.before):
        # A freshly built subsystem resumes the image's instant.
        scheduler.reached, scheduler.before = image.reached, image.before
    elif image.time != rewound_from:
        # A rollback: the instants it revisits were already waited for.
        scheduler.before = scheduler.reached
    scheduler.now = image.time
    subsystem._started = image.started
    scheduler.dispatched = image.dispatched
    scheduler.stalls = image.stalls
    scheduler.queue.restore(events)
    for name, snap in image.components.items():
        try:
            component = subsystem.components[name]
        except KeyError:
            raise CheckpointError(
                f"{subsystem.name}: checkpoint references unknown component "
                f"{name!r}") from None
        component.restore(snap)
    for name, state in image.nets.items():
        net = subsystem.nets[name]
        net.value = smart_copy(state.value)
        net.last_change = state.last_change
        net.posts = state.posts
    telemetry = subsystem.telemetry
    if telemetry.enabled:
        telemetry.count("checkpoint.restores")
        telemetry.trace(TraceKind.CHECKPOINT_RESTORE, time=image.time,
                        subject=subsystem.name,
                        checkpoint_id=image.checkpoint_id,
                        rewound_from=rewound_from)


class CheckpointStore:
    """Keeps full checkpoint images for one subsystem."""

    def __init__(self, *, keep_last: Optional[int] = None) -> None:
        self._images: dict[int, CheckpointImage] = {}
        self._order: list[int] = []
        self._ids = itertools.count(1)
        self.keep_last = keep_last
        #: Telemetry sink (attached via Subsystem.attach_telemetry).
        self.telemetry = NULL_TELEMETRY

    def __len__(self) -> int:
        return len(self._order)

    def take(self, subsystem: "Subsystem", *, label: Optional[str] = None,
             checkpoint_id: Optional[int] = None) -> int:
        cid = checkpoint_id if checkpoint_id is not None else next(self._ids)
        if cid in self._images:
            # Chandy-Lamport marks may race a locally generated request with
            # the same identifier; the first save wins (paper section 2.2.3).
            return cid
        self._images[cid] = self._store(subsystem, cid, label)
        self._order.append(cid)
        self._prune()
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("checkpoint.saves")
            telemetry.trace(TraceKind.CHECKPOINT_SAVE,
                            time=subsystem.scheduler.now,
                            subject=subsystem.name,
                            checkpoint_id=cid, label=label)
        return cid

    def restore(self, subsystem: "Subsystem", checkpoint_id: int) -> CheckpointImage:
        image = self.image(checkpoint_id)
        reinstate(subsystem, image)
        return image

    def image(self, checkpoint_id: int) -> CheckpointImage:
        try:
            return self._load(checkpoint_id)
        except KeyError:
            raise NoSuchCheckpointError(
                f"no checkpoint with id {checkpoint_id}") from None

    def latest(self) -> Optional[int]:
        return self._order[-1] if self._order else None

    def latest_at_or_before(self, time: float) -> Optional[int]:
        """The most recent checkpoint whose time is ``<= time``."""
        best = None
        for cid in self._order:
            if self._images[cid].time <= time:
                if best is None or self._images[cid].time >= self._images[best].time:
                    best = cid
        return best

    def latest_for_component(self, name: str, local_time: float
                             ) -> Optional[int]:
        """The most recent checkpoint in which component ``name`` had not
        yet passed ``local_time``.

        This is the rewind target for consistency violations: a component
        may have run far ahead of subsystem time, so the subsystem-time
        criterion of :meth:`latest_at_or_before` is not enough — the image
        must predate the component's own offending access.
        """
        best = None
        best_time = None
        for cid in self._order:
            image = self._load(cid)
            snap = image.components.get(name)
            if snap is None or snap.local_time > local_time:
                continue
            if best is None or image.time >= best_time:
                best = cid
                best_time = image.time
        return best

    def storage_bytes(self) -> int:
        return sum(image.storage_bytes() for image in self._images.values())

    def discard(self, checkpoint_id: int) -> None:
        """Forget the newest image: one no restore point names any more
        (a global cut that a rollback abandoned)."""
        self._order.remove(checkpoint_id)
        del self._images[checkpoint_id]

    def _prune(self) -> None:
        if self.keep_last is None:
            return
        while len(self._order) > self.keep_last:
            dropped = self._order.pop(0)
            del self._images[dropped]

    # hooks for the incremental subclass -------------------------------
    def _store(self, subsystem: "Subsystem", cid: int,
               label: Optional[str]) -> CheckpointImage:
        return capture(subsystem, cid, label)

    def _load(self, checkpoint_id: int) -> CheckpointImage:
        return self._images[checkpoint_id]


@dataclass
class _DeltaImage:
    """What changed in one component since the previous image."""

    changed_attrs: dict = field(default_factory=dict)
    removed_attrs: list = field(default_factory=list)
    log_extension: list = field(default_factory=list)
    local_time: float = 0.0
    runlevel: str = ""
    finished: bool = False
    port_buffers: dict = field(default_factory=dict)
    interface_states: dict = field(default_factory=dict)
    extra_scalars: dict = field(default_factory=dict)


@dataclass
class _IncrementalRecord:
    checkpoint_id: int
    label: Optional[str]
    time: float
    base_id: Optional[int]          # None => full image
    full: Optional[CheckpointImage]
    events: list = field(default_factory=list)
    nets: dict = field(default_factory=dict)
    deltas: dict = field(default_factory=dict)
    started: bool = True
    dispatched: int = 0
    stalls: int = 0
    reached: float = 0.0
    before: float = 0.0
    _storage_bytes: Optional[int] = field(
        default=None, repr=False, compare=False)

    def storage_bytes(self) -> int:
        if self.full is not None:
            return self.full.storage_bytes()
        if self._storage_bytes is None:
            content = ((self.checkpoint_id, self.label, self.time,
                        self.base_id),
                       [_event_content(e) for e in self.events],
                       self.nets,
                       list(self.deltas.values()))
            try:
                self._storage_bytes = len(pickle.dumps(
                    content, protocol=pickle.HIGHEST_PROTOCOL))
            except Exception:
                self._storage_bytes = (
                    _measure(content[0])
                    + sum(_measure(_event_content(e)) for e in self.events)
                    + _measure(self.nets)
                    + sum(_measure(delta)
                          for delta in self.deltas.values()))
        return self._storage_bytes


class IncrementalCheckpointStore(CheckpointStore):
    """Stores diffs against the previous checkpoint (paper future work).

    Every ``full_every``-th checkpoint is stored whole; the rest keep only
    per-component attribute diffs and replay-log suffixes.  The event queue
    and net values are always stored whole (they are small and churn
    completely between checkpoints).
    """

    def __init__(self, *, full_every: int = 8,
                 keep_last: Optional[int] = None) -> None:
        super().__init__(keep_last=None)   # pruning would break diff chains
        if keep_last is not None:
            raise CheckpointError(
                "IncrementalCheckpointStore cannot prune (diff chains)")
        if full_every < 1:
            raise CheckpointError("full_every must be >= 1")
        self.full_every = full_every
        self._records: dict[int, _IncrementalRecord] = {}
        self._since_full = 0

    def _store(self, subsystem: "Subsystem", cid: int,
               label: Optional[str]) -> CheckpointImage:
        image = capture(subsystem, cid, label)
        previous = self._order[-1] if self._order else None
        if previous is None or self._since_full >= self.full_every - 1:
            self._records[cid] = _IncrementalRecord(
                cid, label, image.time, base_id=None, full=image)
            self._since_full = 0
        else:
            base = self._load(previous)
            self._records[cid] = self._diff(base, image, cid, label)
            self._since_full += 1
        return image

    def _load(self, checkpoint_id: int) -> CheckpointImage:
        record = self._records[checkpoint_id]
        if record.base_id is None:
            assert record.full is not None
            return record.full
        base = self._load(record.base_id)
        return self._apply(base, record)

    def storage_bytes(self) -> int:
        return sum(record.storage_bytes() for record in self._records.values())

    def discard(self, checkpoint_id: int) -> None:
        super().discard(checkpoint_id)
        # The next image is whole or a diff as if this one was never taken.
        full = self._records.pop(checkpoint_id).base_id is None
        self._since_full = self.full_every - 1 if full else self._since_full - 1

    # ------------------------------------------------------------------
    @staticmethod
    def _diff(base: CheckpointImage, image: CheckpointImage, cid: int,
              label: Optional[str]) -> _IncrementalRecord:
        record = _IncrementalRecord(cid, label, image.time, base_id=base.checkpoint_id,
                                    full=None, events=image.events,
                                    nets=image.nets, started=image.started,
                                    dispatched=image.dispatched,
                                    stalls=image.stalls,
                                    reached=image.reached,
                                    before=image.before)
        for name, snap in image.components.items():
            old = base.components.get(name)
            delta = _DeltaImage(local_time=snap.local_time,
                                runlevel=snap.runlevel,
                                finished=snap.finished,
                                port_buffers=snap.port_buffers,
                                interface_states=snap.interface_states)
            old_attrs = old.attrs if old is not None else {}
            for key, value in snap.attrs.items():
                if key not in old_attrs or not _same(old_attrs[key], value):
                    delta.changed_attrs[key] = value
            delta.removed_attrs = [key for key in old_attrs
                                   if key not in snap.attrs]
            old_log = old.extra.get("log", []) if old is not None else []
            new_log = snap.extra.get("log", [])
            if new_log[:len(old_log)] == old_log:
                delta.log_extension = new_log[len(old_log):]
            else:   # log diverged (rollback in between): store whole
                delta.log_extension = new_log
                delta.extra_scalars["log_reset"] = True
            old_extra = old.extra if old is not None else {}
            for key, value in snap.extra.items():
                if key == "log":
                    continue
                if key not in old_extra or not _same(old_extra[key], value):
                    delta.extra_scalars[key] = value
            record.deltas[name] = delta
        return record

    @staticmethod
    def _apply(base: CheckpointImage, record: _IncrementalRecord) -> CheckpointImage:
        image = CheckpointImage(record.checkpoint_id, record.label, record.time,
                                events=record.events, nets=record.nets,
                                started=record.started,
                                dispatched=record.dispatched,
                                stalls=record.stalls,
                                reached=record.reached,
                                before=record.before,
                                subsystem=base.subsystem)
        for name, delta in record.deltas.items():
            old = base.components.get(name)
            attrs = dict(old.attrs) if old is not None else {}
            attrs.update(delta.changed_attrs)
            for key in delta.removed_attrs:
                attrs.pop(key, None)
            old_log = old.extra.get("log", []) if old is not None else []
            if delta.extra_scalars.get("log_reset"):
                log = list(delta.log_extension)
            else:
                log = list(old_log) + list(delta.log_extension)
            extra = {key: value for key, value in old.extra.items()
                     if key != "log"} if old is not None else {}
            extra.update({key: value for key, value in
                          delta.extra_scalars.items() if key != "log_reset"})
            extra["log"] = log
            image.components[name] = ComponentSnapshot(
                name=name,
                local_time=delta.local_time,
                runlevel=delta.runlevel,
                finished=delta.finished,
                attrs=attrs,
                port_buffers=delta.port_buffers,
                interface_states=delta.interface_states,
                extra=extra,
            )
        return image


def _same(a: Any, b: Any) -> bool:
    """Structural equality that tolerates objects without ``__eq__``."""
    if a is b:
        return True
    if is_immutable(a) and is_immutable(b):
        # Builtin immutables have trustworthy __eq__; a False answer is
        # final, no need to compare pickles.
        try:
            return bool(a == b)
        except Exception:
            return False
    try:
        if a == b:
            return True
    except Exception:
        pass
    try:
        return pickle.dumps(a) == pickle.dumps(b)
    except Exception:
        return False
