"""Subsystems: the unit of scheduling and distribution.

Each Pia node contains one or more subsystems, and each subsystem contains
some fragment of the design under test together with a scheduler object
that enforces the local timing semantics (paper section 2.2).  A single
subsystem behaves exactly like the single-host version of Pia.

Components, interfaces and ports are atomic: they are always wholly
contained in one subsystem.  Nets are the only user object that may be
split across subsystems (handled by :mod:`repro.distributed.partition`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

from .checkpoint import CheckpointStore
from .component import Component
from .errors import ConfigurationError, RunLevelError
from .net import Net
from .port import Port
from .scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..distributed.channel import ChannelEndpoint
    from ..distributed.node import PiaNode


class Subsystem:
    """A schedulable fragment of the system under test."""

    def __init__(self, name: str, *,
                 checkpoint_store: Optional[CheckpointStore] = None) -> None:
        self.name = name
        self.components: dict[str, Component] = {}
        self.nets: dict[str, Net] = {}
        self.scheduler = Scheduler(self)
        self.checkpoints = checkpoint_store if checkpoint_store is not None \
            else CheckpointStore()
        #: Channel endpoints keyed by channel id (distributed layer).
        self.channels: dict[str, "ChannelEndpoint"] = {}
        self.node: "Optional[PiaNode]" = None
        self._started = False

    def attach_telemetry(self, telemetry) -> None:
        """Point this subsystem's scheduler and checkpoint store at the
        owning simulation's :class:`~repro.observability.Telemetry`."""
        self.scheduler.telemetry = telemetry
        self.checkpoints.telemetry = telemetry

    @property
    def telemetry(self):
        return self.scheduler.telemetry

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        if component.name in self.components:
            raise ConfigurationError(
                f"{self.name}: duplicate component {component.name}")
        if component.subsystem is not None:
            raise ConfigurationError(
                f"component {component.name} already belongs to "
                f"{component.subsystem.name}")
        component.subsystem = self
        self.components[component.name] = component
        return component

    def add_net(self, net: Net) -> Net:
        if net.name in self.nets:
            raise ConfigurationError(f"{self.name}: duplicate net {net.name}")
        net.subsystem = self
        self.nets[net.name] = net
        return net

    def wire(self, name: str, *ports: Port, delay: float = 0.0) -> Net:
        """Create a net and connect the given ports to it."""
        net = self.add_net(Net(name, delay=delay))
        net.connect(*ports)
        return net

    def component(self, name: str) -> Component:
        try:
            return self.components[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: no component named {name!r}") from None

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: no net named {name!r}") from None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.scheduler.now

    def start(self) -> None:
        """Start every component (idempotent)."""
        if self._started:
            return
        self._started = True
        for component in self._ordered_components():
            component.start()

    def run(self, until: float = float("inf"), *,
            horizon=float("inf"),
            max_events: Optional[int] = None) -> int:
        """Run the local scheduler; see :meth:`Scheduler.run`."""
        self.start()
        return self.scheduler.run(until, horizon=horizon, max_events=max_events)

    def next_event_time(self) -> float:
        return self.scheduler.next_event_time()

    def _ordered_components(self) -> list[Component]:
        return [self.components[name] for name in sorted(self.components)]

    # ------------------------------------------------------------------
    # run levels
    # ------------------------------------------------------------------
    def set_runlevel(self, target: str, level: str) -> None:
        """Change the detail level of a component or one interface.

        ``target`` is ``"Component"`` (switch the component and all its
        interfaces) or ``"Component.interface"``.  Takes effect at the next
        transfer — the safe point of section 2.1.3.
        """
        if "." in target:
            comp_name, iface_name = target.split(".", 1)
            component = self.component(comp_name)
            component.interface(iface_name).set_level(level)
            return
        component = self.component(target)
        component.runlevel = level
        failed = []
        for iface in component.interfaces.values():
            if level in iface.protocol.levels():
                iface.set_level(level)
            else:
                failed.append(iface.name)
        if failed and not component.interfaces.keys() - set(failed):
            # No interface understands the level at all: surface the mistake.
            raise RunLevelError(
                f"{target}: no interface supports level {level!r}")

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def request_checkpoint(self, *, label: Optional[str] = None,
                           checkpoint_id: Optional[int] = None) -> int:
        """Save a local checkpoint at the earliest safe point — i.e. now.

        Component activations are atomic, so between event dispatches every
        component is at a stable boundary and the paper's
        save-before-next-receive rule holds trivially.
        """
        return self.checkpoints.take(self, label=label,
                                     checkpoint_id=checkpoint_id)

    def restore_checkpoint(self, checkpoint_id: int) -> None:
        self.checkpoints.restore(self, checkpoint_id)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Subsystem {self.name} t={self.now:g} "
                f"components={len(self.components)}>")
