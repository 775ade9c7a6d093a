"""Components: containers of behaviour in a Pia simulation.

The paper's object model (section 2.1): *components* hold basic
functionality (embedded processors running programs, ASICs, FPGAs),
*interfaces* connect components to *ports*, and ports are interconnected
through *nets*.

Two behavioural styles are provided, both of which appear in the paper:

:class:`ReactiveComponent`
    Event-handler style, for reactive/polling hardware models.  All state
    lives in instance attributes, so a checkpoint is a deep copy.

:class:`ProcessComponent`
    Sequential-software style: the behaviour is a generator yielding the
    commands of :mod:`repro.core.process`.  Generator frames cannot be
    copied, so checkpoints are taken by *deterministic replay*: the
    component records every value fed into its generator and, on restore,
    re-executes the behaviour against that log with side effects
    suppressed.  This matches the paper's restore-and-reexecute semantics
    (section 2.1.2) and requires behaviours to be deterministic functions
    of their received values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from .errors import CheckpointError, ConfigurationError, SimulationError
from .events import Event, EventKind
from .fastcopy import smart_copy_dict, smart_copy_list
from .port import Port, PortDirection
from .process import (
    Advance,
    Command,
    Receive,
    ReceiveTransfer,
    SaveCheckpoint,
    Send,
    SwitchLevel,
    Sync,
    Transfer,
    TryReceive,
    WaitUntil,
)
from .timestamp import PRIORITY_CONTROL, PRIORITY_WAKE, Timestamp
# Already loaded by .interface; protocols/* import only core.errors.
from ..protocols.base import INCOMPLETE, reassemble_step

if TYPE_CHECKING:  # pragma: no cover
    from .interface import Interface
    from .subsystem import Subsystem

#: The detail level every component starts at.
DEFAULT_LEVEL = "default"


@dataclass
class ComponentSnapshot:
    """A restorable image of one component (paper section 2.1.2)."""

    name: str
    local_time: float
    runlevel: str
    finished: bool
    attrs: dict = field(default_factory=dict)
    port_buffers: dict = field(default_factory=dict)
    interface_states: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class Component:
    """Base class: naming, wiring, local virtual time, checkpoint plumbing.

    Subclasses must set all *framework* attributes in ``__init__`` before
    calling :meth:`_seal_infra`; every attribute assigned afterwards is
    considered *user state* and participates in checkpoints.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.subsystem: "Optional[Subsystem]" = None
        self.local_time = 0.0
        self.runlevel = DEFAULT_LEVEL
        self.finished = False
        self.ports: dict[str, Port] = {}
        self.interfaces: dict[str, "Interface"] = {}
        #: Deterministic per-component RNG for behaviours that need noise,
        #: seeded from the name itself (``random`` hashes a str seed with
        #: SHA-512), not from ``hash()``, which is salted per process.
        self.rng = random.Random(name)
        self._wake_seq = 0
        self._pending_checkpoint: Optional[object] = None
        self._infra_keys: set[str] = set()
        self._seal_infra()

    def _seal_infra(self) -> None:
        """Record the current attribute set as framework-internal."""
        self._infra_keys = set(self.__dict__.keys()) | {"_infra_keys"}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_port(self, name: str, direction: PortDirection = PortDirection.INOUT,
                 *, hidden: bool = False) -> Port:
        if name in self.ports:
            raise ConfigurationError(f"{self.name}: duplicate port {name}")
        port = Port(name, direction, owner=self, hidden=hidden)
        self.ports[name] = port
        return port

    def port(self, name: str) -> Port:
        try:
            return self.ports[name]
        except KeyError:
            raise ConfigurationError(f"{self.name}: no port named {name!r}") from None

    def add_interface(self, interface: "Interface") -> "Interface":
        if interface.name in self.interfaces:
            raise ConfigurationError(
                f"{self.name}: duplicate interface {interface.name}")
        interface.bind(self)
        self.interfaces[interface.name] = interface
        return interface

    def interface(self, name: str) -> "Interface":
        try:
            return self.interfaces[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: no interface named {name!r}") from None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def system_time(self) -> float:
        """The owning subsystem's virtual time (paper: *system time*)."""
        if self.subsystem is None:
            return 0.0
        return self.subsystem.scheduler.now

    def advance(self, dt: float) -> None:
        """Consume ``dt`` seconds of local virtual time."""
        if dt < 0:
            raise SimulationError(f"{self.name}: negative advance {dt}")
        self.local_time += dt

    # ------------------------------------------------------------------
    # scheduler entry points
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called once when the simulation begins."""

    def deliver(self, event: Event) -> None:
        """Called by the scheduler for every event targeting this component."""
        raise NotImplementedError

    def is_blocked(self) -> bool:
        """Whether the component is paused waiting for input or a wake-up."""
        return False

    def _schedule_wake(self, at_time: float, payload: Any = None) -> int:
        """Enqueue a WAKE event for this component; returns its token."""
        token = self._wake_seq
        self._wake_seq += 1
        assert self.subsystem is not None
        self.subsystem.scheduler.schedule(
            Event(Timestamp(at_time, PRIORITY_WAKE), EventKind.WAKE,
                  target=self, payload=payload, token=token))
        return token

    def _consume(self, port: Port, iface: "Optional[Interface]",
                 log: Optional[list]) -> Any:
        """The one consume body behind every receive shape.

        Takes buffered values off ``port``, earliest first, moving local
        time up to each arrival; with ``iface`` they are reassembled until
        a transfer completes (``None`` is a payload — only ``INCOMPLETE``
        means "not yet").  Returns ``(local_time, value)``, also appended
        to the replay ``log`` if given, or ``_BLOCKED`` on a dry buffer.
        """
        buffer = port.buffer
        while buffer:
            time, value = buffer.popleft()
            if time > self.local_time:
                self.local_time = time
            if iface is not None:
                value = reassemble_step(iface._partial, value)
                if value is INCOMPLETE:
                    continue
                iface.received_transfers += 1
            result = (self.local_time, value)
            if log is not None:
                log.append(("receive" if iface is None else "transfer",
                            result))
            return result
        return _BLOCKED

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _user_attrs(self) -> dict:
        return {key: value for key, value in self.__dict__.items()
                if key not in self._infra_keys}

    def snapshot(self) -> ComponentSnapshot:
        """Capture a restorable image of this component."""
        snap = ComponentSnapshot(
            name=self.name,
            local_time=self.local_time,
            runlevel=self.runlevel,
            finished=self.finished,
            attrs=smart_copy_dict(self._user_attrs()),
            port_buffers={name: list(port.buffer)
                          for name, port in self.ports.items()},
            interface_states={name: iface.snapshot_state()
                              for name, iface in self.interfaces.items()},
        )
        snap.extra["wake_seq"] = self._wake_seq
        snap.extra["rng_state"] = self.rng.getstate()
        return snap

    def restore(self, snap: ComponentSnapshot) -> None:
        """Reinstate the state captured by :meth:`snapshot`."""
        if snap.name != self.name:
            raise CheckpointError(
                f"snapshot of {snap.name!r} applied to {self.name!r}")
        self.local_time = snap.local_time
        self.runlevel = snap.runlevel
        self.finished = snap.finished
        for key in list(self._user_attrs()):
            del self.__dict__[key]
        self.__dict__.update(smart_copy_dict(snap.attrs))
        for name, contents in snap.port_buffers.items():
            port = self.ports[name]
            port.buffer.clear()
            port.buffer.extend(smart_copy_list(contents))
        for name, state in snap.interface_states.items():
            self.interfaces[name].restore_state(state)
        self._wake_seq = snap.extra["wake_seq"]
        self.rng.setstate(snap.extra["rng_state"])

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} @{self.local_time:g}>"


class ReactiveComponent(Component):
    """Event-handler style component.

    Subclasses override :meth:`on_event` (and optionally
    :meth:`on_interrupt`, :meth:`on_wake`, :meth:`on_transfer`,
    :meth:`on_start`).  Handlers run at the triggering event's virtual time
    and may advance local time, send values, perform protocol transfers and
    schedule wake-ups.
    """

    # -- hooks ---------------------------------------------------------
    def on_start(self) -> None:
        """Called once at simulation start."""

    def on_event(self, port: str, time: float, value: Any) -> None:
        """Called for every value delivered to one of this component's ports."""

    def on_interrupt(self, port: str, time: float, value: Any) -> None:
        """Called for interrupt deliveries; defaults to :meth:`on_event`."""
        self.on_event(port, time, value)

    def on_wake(self, time: float, payload: Any) -> None:
        """Called when a wake-up scheduled via :meth:`wake_at` fires."""

    def on_transfer(self, interface: str, time: float, payload: Any) -> None:
        """Called when a complete protocol transfer has been reassembled."""

    # -- actions usable from hooks --------------------------------------
    def send(self, port: str, value: Any, delay: float = 0.0) -> None:
        """Drive ``value`` on ``port`` at ``local_time + delay``."""
        self.port(port).drive(value, self.local_time + delay)

    def transfer(self, interface: str, payload: Any) -> float:
        """Run one protocol transfer; returns its duration in seconds."""
        iface = self.interface(interface)
        return iface.emit(payload, self.local_time, advance=self.advance)

    def wake_at(self, time: float, payload: Any = None) -> None:
        """Request :meth:`on_wake` at virtual ``time``."""
        self._schedule_wake(max(time, self.local_time), payload)

    def wake_after(self, delay: float, payload: Any = None) -> None:
        self.wake_at(self.local_time + delay, payload)

    # -- scheduler entry points -----------------------------------------
    def start(self) -> None:
        self.on_start()

    def deliver(self, event: Event) -> None:
        time = event.time
        if event.kind is EventKind.WAKE:
            self.local_time = max(self.local_time, time)
            self.on_wake(time, event.payload)
            return
        # Consumed the moment it lands; the hook is told the event's time
        # (local time may already be past it).
        port: Port = event.target
        iface = self._interface_for(port)
        port.buffer.append((time, event.payload))
        result = self._consume(port, iface, None)
        if iface is not None:
            if result is not _BLOCKED:
                self.on_transfer(iface.name, time, result[1])
        elif event.kind is EventKind.INTERRUPT:
            self.on_interrupt(port.name, time, event.payload)
        else:
            self.on_event(port.name, time, event.payload)

    def _interface_for(self, port: Port) -> "Optional[Interface]":
        for iface in self.interfaces.values():
            if iface.in_port is port:
                return iface
        return None


class ProcessComponent(Component):
    """Sequential behaviour expressed as a generator of commands.

    Subclasses implement :meth:`run` — typically the embedded software
    itself, with basic-block timing estimates embedded as
    :class:`~repro.core.process.Advance` commands, exactly as the paper
    embeds estimates in the Java source (section 2.1).
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._gen: Optional[Iterator[Command]] = None
        #: Why the generator is paused: ``(kind, name)``, ``name`` the port
        #: (``"receive"``), interface (``"transfer"``) or token (``"wake"``).
        self._block: Optional[tuple[str, Any]] = None
        self._log: list[tuple[str, Any]] = []
        self._replay: Optional[Iterator[tuple[str, Any]]] = None
        self._seal_infra()

    # -- behaviour -------------------------------------------------------
    def run(self) -> Iterator[Command]:
        """The component's behaviour; override in subclasses."""
        raise NotImplementedError
        yield  # pragma: no cover

    def on_interrupt(self, port: str, time: float, value: Any) -> None:
        """Asynchronous interrupt hook; runs at the interrupt's time.

        State touched here must live in instance attributes (it is restored
        from the attribute snapshot on rollback, not recomputed by replay).
        """

    # -- scheduler entry points -------------------------------------------
    def start(self) -> None:
        self._gen = self.run()
        self._engine(None)

    def is_blocked(self) -> bool:
        return self._block is not None and not self.finished

    def deliver(self, event: Event) -> None:
        time = event.time
        if event.kind is EventKind.WAKE:
            if self._block == ("wake", event.token):
                self._block = None
                resumed = max(self.local_time, time)
                self.local_time = resumed
                self._log.append(("wake", resumed))
                self._engine(resumed)
            return
        port: Port = event.target
        port.deliver(time, event.payload)
        if event.kind is EventKind.INTERRUPT:
            self.on_interrupt(port.name, time, event.payload)
        # Resume the generator if this delivery is what it is blocked on.
        block = self._block
        if block is None:
            return
        kind, name = block
        if kind == "receive":
            if name != port.name:
                return
            iface = None
        elif kind == "transfer":
            iface = self.interfaces[name]
            if iface.in_port is not port:
                return
        else:
            return
        result = self._consume(port, iface, self._log)
        if result is not _BLOCKED:
            self._block = None
            self._engine(result)

    # -- the command engine -------------------------------------------------
    def _engine(self, resume_value: Any) -> None:
        """Run the generator until it blocks or finishes (a fresh one is
        first resumed with ``None``, which ``send`` takes as ``next``)."""
        assert self._gen is not None
        send = self._gen.send
        value = resume_value
        while True:
            try:
                cmd = send(value)
            except StopIteration:
                self.finished = True
                self._block = None
                return
            value = self._execute(cmd)
            if value is _BLOCKED:
                return

    def _execute(self, cmd: Command) -> Any:
        """Execute one command; returns the resume value or ``_BLOCKED``."""
        replaying = self._replay is not None
        if isinstance(cmd, Advance):
            self.advance(cmd.dt)
            return None
        if isinstance(cmd, Send):
            if not replaying:
                self.port(cmd.port).drive(cmd.value, self.local_time + cmd.delay)
            return None
        if isinstance(cmd, Transfer):
            if replaying:
                kind, dt = self._replay_next("transfer_out")
                self.local_time += dt
            else:
                iface = self.interface(cmd.interface)
                before = self.local_time
                iface.emit(cmd.payload, self.local_time, advance=self.advance)
                self._log.append(("transfer_out", self.local_time - before))
            return None
        if isinstance(cmd, SwitchLevel):
            if not replaying:
                self._apply_switch(cmd)
            return None
        if isinstance(cmd, SaveCheckpoint):
            if not replaying and self.subsystem is not None:
                # The save must not capture this component mid-activation
                # (its generator frame sits between commands and cannot be
                # replayed to).  Defer to the next scheduler boundary — the
                # paper's "earliest local time possible after the request".
                scheduler = self.subsystem.scheduler
                subsystem = self.subsystem
                label = cmd.label
                scheduler.schedule(Event(
                    Timestamp(scheduler.now, PRIORITY_CONTROL),
                    EventKind.CONTROL,
                    target=lambda event: subsystem.request_checkpoint(
                        label=label)))
            return None
        if isinstance(cmd, Receive):
            return self._do_receive("receive", cmd.port)
        if isinstance(cmd, TryReceive):
            return self._do_try_receive(cmd.port)
        if isinstance(cmd, ReceiveTransfer):
            return self._do_receive("transfer", cmd.interface)
        if isinstance(cmd, WaitUntil):
            return self._do_wait(max(cmd.time, self.local_time))
        if isinstance(cmd, Sync):
            return self._do_wait(self.local_time)
        return self._execute_extra(cmd)

    def _execute_extra(self, cmd: Command) -> Any:
        """Hook for subclasses adding commands (e.g. processor memory ops).

        Must return the resume value, ``_BLOCKED`` after establishing
        ``self._block``, and must keep the replay log consistent; see
        :mod:`repro.processor.software` for the canonical extension.
        """
        raise SimulationError(f"{self.name}: unknown command {cmd!r}")

    # helpers for _execute_extra implementations ---------------------------
    @property
    def replaying(self) -> bool:
        return self._replay is not None

    def log_append(self, kind: str, data: Any) -> None:
        self._log.append((kind, data))

    def replay_take(self, expected: str, *, allow_end: bool = False) -> Any:
        """Consume the next replay entry (must be ``expected``)."""
        return self._replay_next(expected, allow_end=allow_end)

    def block_on_wait(self, at_time: float) -> Any:
        """Block like ``WaitUntil`` from an extension command."""
        return self._do_wait(max(at_time, self.local_time))

    def _do_receive(self, kind: str, name: str) -> Any:
        """``Receive`` (``kind`` ``"receive"``, ``name`` a port) or
        ``ReceiveTransfer`` (``"transfer"``, an interface): the resume
        value if it is already here, else block until it is."""
        if self._replay is not None:
            entry = self._replay_next(kind, allow_end=True)
            if entry is not _REPLAY_END:
                __, result = entry
                self.local_time = result[0]
                return result
        else:
            if kind == "receive":
                port, iface = self.port(name), None
            else:
                iface = self.interface(name)
                port = iface.in_port
                if port is None:
                    raise ConfigurationError(
                        f"{self.name}.{name}: interface has no input port")
            result = self._consume(port, iface, self._log)
            if result is not _BLOCKED:
                return result
        self._block = (kind, name)
        return _BLOCKED

    def _do_try_receive(self, port_name: str) -> Any:
        if self._replay is not None:
            __, result = self._replay_next("tryreceive")
            if result is not None:
                self.local_time = max(self.local_time, result[0])
            return result
        result = self._consume(self.port(port_name), None, None)
        if result is _BLOCKED:
            result = None
        self._log.append(("tryreceive", result))
        return result

    def _do_wait(self, at_time: float) -> Any:
        if self._replay is not None:
            entry = self._replay_next("wake", allow_end=True)
            if entry is _REPLAY_END:
                token = self._wake_seq
                self._wake_seq += 1
                self._block = ("wake", token)
                return _BLOCKED
            __, resumed = entry
            self._wake_seq += 1
            self.local_time = resumed
            return resumed
        self._block = ("wake", self._schedule_wake(at_time))
        return _BLOCKED

    def _apply_switch(self, cmd: SwitchLevel) -> None:
        assert self.subsystem is not None
        target = cmd.target if cmd.target is not None else self.name
        self.subsystem.set_runlevel(target, cmd.level)

    # -- replay-based checkpointing ------------------------------------------
    def _replay_next(self, expected: str, *, allow_end: bool = False) -> Any:
        assert self._replay is not None
        try:
            entry = next(self._replay)
        except StopIteration:
            if allow_end:
                return _REPLAY_END
            raise CheckpointError(
                f"{self.name}: replay log ended inside a non-blocking command"
            ) from None
        if entry[0] != expected:
            raise CheckpointError(
                f"{self.name}: nondeterministic behaviour — replay expected "
                f"{expected!r} but log holds {entry[0]!r}")
        return entry

    def snapshot(self) -> ComponentSnapshot:
        snap = super().snapshot()
        snap.extra["log"] = smart_copy_list(self._log)
        snap.extra["started"] = self._gen is not None
        snap.extra["block"] = self._block_descriptor()
        return snap

    def _block_descriptor(self) -> Optional[tuple]:
        """The checkpoint image's ``(kind, port, interface, token)``."""
        if self._block is None:
            return None
        kind, name = self._block
        return (kind, name if kind == "receive" else None,
                name if kind == "transfer" else None,
                name if kind == "wake" else None)

    def restore(self, snap: ComponentSnapshot) -> None:
        log = smart_copy_list(snap.extra["log"])
        # Rebuild the generator frame by deterministic replay of the log.
        self.local_time = 0.0
        self.finished = False
        self._wake_seq = 0
        self.rng = random.Random(self.name)
        self._block = None
        self._log = log
        if snap.extra["started"]:
            self._gen = self.run()
            self._replay = iter(log)
            self._engine(None)
            leftovers = list(self._replay)
        else:
            self._gen = None
            leftovers = []
        self._replay = None
        if leftovers:
            raise CheckpointError(
                f"{self.name}: replay finished with {len(leftovers)} unconsumed "
                "log entries — behaviour is nondeterministic")
        if self._block_descriptor() != snap.extra["block"] \
                or self.finished != snap.finished:
            raise CheckpointError(
                f"{self.name}: replay ended at {self._block_descriptor()!r} "
                f"but the snapshot was taken at {snap.extra['block']!r} — "
                "behaviour is nondeterministic")
        # Attributes, buffers, interface state and clocks come from the image.
        super().restore(snap)
        if abs(self.local_time - snap.local_time) > 1e-12:
            raise CheckpointError(
                f"{self.name}: replay reproduced local time {self.local_time!r}"
                f" but snapshot recorded {snap.local_time!r}")


class _BlockedSentinel:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<blocked>"


class _ReplayEndSentinel:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<replay-end>"


_BLOCKED = _BlockedSentinel()
_REPLAY_END = _ReplayEndSentinel()

#: Public aliases for ``_execute_extra`` implementations in other packages.
BLOCKED = _BLOCKED
REPLAY_END = _REPLAY_END


class FunctionComponent(ProcessComponent):
    """A process component whose behaviour is a plain generator function.

    Convenient for tests and small examples::

        def blinker(comp):
            while True:
                yield Send("out", 1)
                yield Advance(0.5)

        sim.add(FunctionComponent("blink", blinker, ports={"out": "out"}))
    """

    def __init__(self, name: str,
                 behaviour: Callable[["FunctionComponent"], Iterator[Command]],
                 *, ports: Optional[dict[str, str]] = None) -> None:
        super().__init__(name)
        self._behaviour = behaviour
        self._seal_infra()
        for port_name, direction in (ports or {}).items():
            self.add_port(port_name, PortDirection(direction))

    def run(self) -> Iterator[Command]:
        return self._behaviour(self)
