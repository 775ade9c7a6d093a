"""What the in-process executors share: the live objects of one
distributed system and the builder that wires them.

:class:`~repro.distributed.executor.CoSimulation` and
:class:`~repro.distributed.threaded.ThreadedCoSimulation` run the same
nodes, subsystems and channels over the same transport/telemetry/fault
plumbing; they differ only in who calls each node's round and how global
quiescence is decided.  Everything but that lives here.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Union

from ..core.errors import ConfigurationError, SimulationError
from ..core.subsystem import Subsystem
from ..faults import FaultInjector, FaultPlan, RetryPolicy
from ..observability import RunReport, Telemetry, TraceKind, run_report
from ..transport.inmemory import InMemoryTransport
from ..transport.latency import LatencyModel
from ..transport.message import Message
from .channel import Channel, ChannelMode
from .conservative import SafeTimeService
from .node import PiaNode
from . import topology


class LiveSystem:
    """Nodes, subsystems and channels as live objects, plus their wiring."""

    #: Prefix of generated channel ids.  Ids travel on the wire, so each
    #: executor keeps the prefix it has always used.
    CHANNEL_PREFIX = "ch"
    #: The safe-time server installed on every node.
    SERVICE = SafeTimeService
    #: Channel modes the executor can run (optimism needs rollback).
    MODES = tuple(ChannelMode)

    def __init__(self, *, transport, default_model: LatencyModel,
                 telemetry: Optional[Telemetry],
                 fault_plan: Optional[FaultPlan],
                 retry_policy: Optional[RetryPolicy],
                 batching: bool) -> None:
        self.transport = transport if transport is not None \
            else InMemoryTransport(default_model=default_model,
                                   batching=batching)
        if batching:
            self.transport.batching = True
        # Batched transports flush per-destination frames at safe points;
        # the source node supplies the safe-time grants piggybacked on them.
        self.transport.set_piggyback_provider(self._grants_for)
        #: Run telemetry shared by every layer; on by default (the
        #: disabled path is a single attribute read per hot-path visit).
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.transport.attach_telemetry(self.telemetry)
        self.nodes: Dict[str, PiaNode] = {}
        self.subsystems: Dict[str, Subsystem] = {}
        self.channels: Dict[str, Channel] = {}
        self.fault_plan = fault_plan
        self.fault_injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            self.fault_injector = FaultInjector(
                fault_plan, retry_policy=retry_policy,
                telemetry=self.telemetry)
            self.transport.attach_faults(self.fault_injector)
        #: Channel-id allocator.  Instance-local, not module-global: ids
        #: travel on the wire, so a process-global counter would make the
        #: byte counts of otherwise identical runs depend on how many
        #: systems the process built before this one.
        self._channel_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> PiaNode:
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node {name!r}")
        node = PiaNode(name, self.transport)
        self.nodes[name] = node
        self.SERVICE(node)
        self._node_added(node)
        return node

    def _node_added(self, node: PiaNode) -> None:
        """Executor-specific wiring of a fresh node (none by default)."""

    def node(self, name: str) -> PiaNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(f"no node named {name!r}") from None

    def add_subsystem(self, node: Union[str, PiaNode],
                      subsystem: Union[str, Subsystem]) -> Subsystem:
        if isinstance(node, str):
            node = self.node(node)
        if isinstance(subsystem, str):
            subsystem = Subsystem(subsystem)
        if subsystem.name in self.subsystems:
            raise ConfigurationError(
                f"duplicate subsystem {subsystem.name!r}")
        node.add_subsystem(subsystem)
        # Subsystem schedulers share the executor telemetry — that is
        # what yields dispatch records and causal spans (cause propagation
        # is thread-local, so node threads never cross-contaminate).
        subsystem.attach_telemetry(self.telemetry)
        self.subsystems[subsystem.name] = subsystem
        self._subsystem_added(subsystem)
        return subsystem

    def _subsystem_added(self, subsystem: Subsystem) -> None:
        """Executor-specific wiring of a fresh subsystem (none by
        default)."""

    def connect(self, a: Subsystem, b: Subsystem, *,
                mode: ChannelMode = ChannelMode.CONSERVATIVE,
                delay: float = 0.0,
                channel_id: Optional[str] = None) -> Channel:
        """Create the channel between two subsystems (one per pair)."""
        if mode not in self.MODES:
            raise SimulationError(
                f"{type(self).__name__} supports "
                f"{'/'.join(m.value for m in self.MODES)} channels only; "
                "use CoSimulation for optimistic channels")
        if channel_id is None:
            channel_id = (f"{self.CHANNEL_PREFIX}{next(self._channel_ids)}"
                          f"-{a.name}-{b.name}")
        if a.node is None or b.node is None:
            raise ConfigurationError(
                "attach both subsystems to nodes before connecting them")
        channel = Channel(channel_id, mode, delay=delay)
        channel.attach(a, peer_subsystem=b.name, peer_node=b.node.name)
        channel.attach(b, peer_subsystem=a.name, peer_node=a.node.name)
        self.channels[channel_id] = channel
        return channel

    def validate_topology(self):
        """Enforce the paper's simple-cycle-only rule."""
        return topology.validate(self.channels.values())

    # ------------------------------------------------------------------
    def global_time(self) -> float:
        """The paper's global notion: the slowest subsystem's time."""
        return min((ss.now for ss in self.subsystems.values()), default=0.0)

    def _mark_down(self, name: str) -> None:
        """Node ``name`` crashes: from here on its traffic is lost."""
        self.fault_injector.mark_down(name)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("fault.node_crashes")
            telemetry.trace(TraceKind.NODE_CRASH, time=self.global_time(),
                            subject=name)

    def _grants_for(self, src: str, dst: str) -> List[Message]:
        """The transport's piggyback provider: ask the source node."""
        node = self.nodes.get(src)
        return node.grants_for(dst) if node is not None else []

    def report(self, *, title: Optional[str] = None) -> RunReport:
        """Assemble the :class:`~repro.observability.RunReport` so far."""
        return run_report(self, title=title)
