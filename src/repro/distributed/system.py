"""What every executor shares: the live objects of one distributed
system and the one realiser that wires them.

:class:`~repro.distributed.executor.CoSimulation`,
:class:`~repro.distributed.threaded.ThreadedCoSimulation` and each worker
process of the multiprocess executor run the same nodes, subsystems and
channels over the same transport/telemetry/fault plumbing; they differ
only in who calls each node's round and how global quiescence is
decided.  Everything but that lives here — built call by call from live
objects, or in one go from a :class:`~repro.distributed.spec.SystemSpec`
(:meth:`LiveSystem.load`).
"""

from __future__ import annotations

import bisect
import itertools
import threading
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from ..core.errors import ConfigurationError, NodeFailure, SimulationError
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
from .spec import SystemSpec

#: What an executor does once a node is lost: restart it from the last
#: cut, or raise :class:`~repro.core.errors.NodeFailure`.
FAILURE_POLICIES = ("recover", "raise")


def file_crash(telemetry: Telemetry, node: str, global_time: float,
               policy: str) -> None:
    """File the loss of ``node`` at ``global_time`` — count, trace and,
    under ``policy="raise"``, the one text every executor raises."""
    if telemetry.enabled:
        telemetry.count("fault.node_crashes")
        telemetry.trace(TraceKind.NODE_CRASH, time=global_time, subject=node)
    if policy == "raise":
        raise NodeFailure(
            f"node {node!r} was lost at global time {global_time:g} under "
            "failure_policy='raise'; CoSimulation and "
            "MultiprocessCoSimulation take 'recover' to restart it from the "
            "last cut", node=node)


def check_failure_policy(policy: str) -> None:
    """Refuse a ``policy`` outside :data:`FAILURE_POLICIES` — the one
    text, in both executors that take one (DESIGN.md §5)."""
    if policy not in FAILURE_POLICIES:
        raise ConfigurationError(
            f"failure policy {policy!r} is not one of {FAILURE_POLICIES}: "
            "CoSimulation and MultiprocessCoSimulation restart a lost node "
            "from the last cut ('recover') or raise ('raise'); "
            "ThreadedCoSimulation always raises")


def reached(instant: float, clocks: Iterable[float],
            next_events: Iterable[float], in_flight: Callable[[], bool],
            *, finish: bool = False) -> bool:
    """Has the run got to virtual ``instant`` — is nothing at or before
    it left anywhere?  The one answer, for every executor, over the
    subsystems' ``clocks``, their ``next_events`` (``inf``: none) and
    whether anything is ``in_flight()`` between them.

    A service owed at ``instant`` fires once every clock is there, or —
    no event need land on the instant — once nothing is in flight and
    all the work left lies beyond it, so nothing at or before it can
    still appear.  A run with no work left never gets to an instant its
    clocks did not.  The finish line (``finish``) is the same rule less
    the clocks' say-so: events may still be queued *on* it, and a run
    with no work left has finished.
    """
    if not finish and min(clocks, default=0.0) >= instant:
        return True
    if in_flight():
        return False
    earliest = min(next_events, default=float("inf"))
    if earliest == float("inf"):
        return finish
    return earliest > instant


class Service(NamedTuple):
    """What (``kind``) is owed to which node (``target``) at ``instant``."""

    instant: float
    kind: str
    target: Optional[str]


class ServiceSchedule:
    """What is owed at which virtual instant, in one list ordered by
    instant (ties as filed): scheduled crashes (``"crash"``), periodic
    cuts (``"cut"``) and requested migrations (``"migrate"``).
    :meth:`next_instant` is every node's :attr:`PiaNode.service_bound`
    (a multiprocess worker's comes with ``start``), so no conservative
    window crosses an entry; each executor fires the kinds it honours
    (:meth:`take_due`).  Writers lock — ``migrate_at`` files from
    listener threads — and swap in a new list, so reads need no lock."""

    def __init__(self) -> None:
        self._entries: List[Service] = []
        self._lock = threading.Lock()

    def add(self, instant: float, kind: str,
            target: Optional[str] = None) -> None:
        """File ``kind`` owed to ``target`` at ``instant``."""
        with self._lock:
            entries = list(self._entries)
            bisect.insort(entries, Service(instant, kind, target),
                          key=lambda entry: entry.instant)
            self._entries = entries

    def _drop(self, keep: Callable[[Service], bool]) -> None:
        with self._lock:
            self._entries = [entry for entry in self._entries if keep(entry)]

    def next_instant(self) -> float:
        """The earliest instant anything is owed (``inf``: nothing)."""
        entries = self._entries
        return entries[0].instant if entries else float("inf")

    def take_due(self, reached: Callable[[float], bool],
                 kinds: Sequence[str]) -> Iterator[Service]:
        """Each entry of ``kinds`` the run has ``reached``, in order.  It
        leaves only when the caller asks for the next one: windows hold
        at its instant while the caller acts on it."""
        while True:
            entry = next((entry for entry in self._entries
                          if entry.kind in kinds), None)
            if entry is None or not reached(entry.instant):
                return
            yield entry
            self._drop(lambda other: other is not entry)

    def arm_crashes(self, fault_plan: Optional[FaultPlan], nodes) -> None:
        """File ``fault_plan``'s crashes in place of any still pending
        (a node outside ``nodes`` is refused before anything runs)."""
        crashes = fault_plan.scheduled_crashes(nodes) \
            if fault_plan is not None else []
        self._drop(lambda entry: entry.kind != "crash")
        for crash in crashes:
            self.add(crash.at_time, "crash", crash.node)

    def rearm_cut(self, last: float, interval: Optional[float]) -> None:
        """Replace the pending cut by one ``interval`` after ``last``
        (none while ``interval`` is None)."""
        self._drop(lambda entry: entry.kind != "cut")
        if interval is not None:
            self.add(last + interval, "cut")


class LiveSystem:
    """Nodes, subsystems and channels as live objects, plus their wiring."""

    #: Prefix of generated channel ids.  Ids travel on the wire, so each
    #: executor keeps the prefix it has always used.
    CHANNEL_PREFIX = "ch"
    #: The safe-time server installed on every node.
    SERVICE = SafeTimeService
    #: Channel modes the executor can run (optimism needs rollback).
    MODES = tuple(ChannelMode)
    #: What a lost node comes to (:data:`FAILURE_POLICIES`); only an
    #: executor that can roll back offers another.
    failure_policy = "raise"

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
        #: What is owed when; every node's ``service_bound`` reads it.
        self.schedule = ServiceSchedule()
        if fault_plan is not None:
            self.fault_injector = FaultInjector(
                fault_plan, retry_policy=retry_policy,
                telemetry=self.telemetry)
            self.transport.attach_faults(self.fault_injector)
        elif retry_policy is not None:
            # No injected drops to retry, but a carrier with real links
            # spends the same budget on reconnects.
            self.transport.retry_policy = retry_policy
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
        node.service_bound = self.schedule.next_instant
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

    @classmethod
    def check_mode(cls, mode: ChannelMode) -> None:
        """Raise unless this executor can run channels of ``mode``."""
        if mode not in cls.MODES:
            raise SimulationError(
                f"{cls.__name__} supports "
                f"{'/'.join(m.value for m in cls.MODES)} channels only; "
                "use CoSimulation for optimistic channels")

    def connect(self, a: Union[Subsystem, Tuple[str, str]],
                b: Union[Subsystem, Tuple[str, str]], *,
                mode: ChannelMode = ChannelMode.CONSERVATIVE,
                delay: float = 0.0,
                channel_id: Optional[str] = None,
                nets: Sequence[str] = ()) -> Channel:
        """Create the channel between two subsystems (one per pair).

        A side another process hosts is named as ``(subsystem, node)``
        and gets no endpoint here.  ``nets`` are split nets whose halves
        (same name on either side) each local endpoint taps — what
        :meth:`Channel.split_net` does per pair of halves.
        """
        self.check_mode(mode)
        if any(isinstance(side, Subsystem) and side.node is None
               for side in (a, b)):
            raise ConfigurationError(
                "attach both subsystems to nodes before connecting them")
        end_a, end_b = ((side.name, side.node.name)
                        if isinstance(side, Subsystem) else tuple(side)
                        for side in (a, b))
        if end_a[0] == end_b[0]:
            raise ConfigurationError(
                f"cannot connect subsystem {end_a[0]!r} to itself")
        if end_a[1] == end_b[1]:
            # A node routes what arrives on a channel to its one end
            # there, and a grant names no sender.
            raise ConfigurationError(
                f"cannot connect {end_a[0]!r} and {end_b[0]!r}: both are "
                f"on one node ({end_a[1]!r}); a channel joins subsystems "
                "on two nodes")
        if channel_id is None:
            channel_id = self._channel_id(next(self._channel_ids),
                                          end_a[0], end_b[0])
        if channel_id in self.channels:
            raise ConfigurationError(f"duplicate channel {channel_id!r}")
        channel = Channel(channel_id, mode, delay=delay)
        for local, (peer, peer_node) in ((a, end_b), (b, end_a)):
            if isinstance(local, Subsystem):
                endpoint = channel.attach(local, peer_subsystem=peer,
                                          peer_node=peer_node)
                for net_name in nets:
                    endpoint.tap(local.net(net_name))
        self.channels[channel_id] = channel
        return channel

    def _channel_id(self, seq: int, a: str, b: str) -> str:
        return f"{self.CHANNEL_PREFIX}{seq}-{a}-{b}"

    def load(self, spec: SystemSpec, only: Optional[str] = None
             ) -> "LiveSystem":
        """Realise ``spec`` here — all of it, or (``only``) one node with
        its subsystems, its ends of the channels touching it and the
        link models; returns ``self``."""
        for node, hosted in spec.nodes.items():
            if only in (None, node):
                self.add_node(node)
                for sspec in hosted:
                    self.add_subsystem(node, sspec.build())
        for cs in spec.channels:
            if only is None or cs.touches(only):
                self.connect(
                    self.subsystems.get(cs.subsystem_a,
                                        (cs.subsystem_a, cs.node_a)),
                    self.subsystems.get(cs.subsystem_b,
                                        (cs.subsystem_b, cs.node_b)),
                    mode=cs.mode, delay=cs.delay, nets=cs.nets,
                    channel_id=self._channel_id(cs.seq, cs.subsystem_a,
                                                cs.subsystem_b))
        for node_a, node_b, model in spec.links:
            self.transport.set_link(node_a, node_b, model)
        return self

    def validate_topology(self):
        """Enforce the paper's simple-cycle-only rule; returns the
        directed subsystem edges it held on."""
        edges = topology.communication_edges(self.channels.values())
        topology.validate(edges)
        return edges

    # ------------------------------------------------------------------
    def global_time(self) -> float:
        """The paper's global notion: the slowest subsystem's time."""
        return min((ss.now for ss in self.subsystems.values()), default=0.0)

    def _in_flight(self) -> bool:
        """Is anything between two subsystems: queued, parked by the
        fault plane, or sent and not yet filed by its receiver?"""
        transport = self.transport
        return transport.pending() != 0 or not transport.wire_balanced()

    def _reached(self, instant: float, *, finish: bool = False) -> bool:
        """:func:`reached`, fed from the subsystems.  This is when
        a service due at ``instant`` fires (see
        :attr:`PiaNode.service_bound`, which holds conservative windows
        back until it has) and, with ``finish``, when the run is over."""
        subsystems = self.subsystems.values()
        return reached(instant, (ss.now for ss in subsystems),
                       self._next_events(subsystems), self._in_flight,
                       finish=finish)

    @staticmethod
    def _next_events(subsystems: Iterable[Subsystem]) -> Iterable[float]:
        for subsystem in subsystems:
            with subsystem.node.lock:
                yield subsystem.next_event_time()

    def _lose_node(self, name: str) -> None:
        """Node ``name`` is lost — its crash fired, or a link towards it
        gave up: its traffic is lost from here on, and the policy responds
        at this instant (``"recover"``: ``CoSimulation._recover_node``)."""
        self.fault_injector.mark_down(name)
        file_crash(self.telemetry, name, self.global_time(),
                   self.failure_policy)
        self._recover_node(name)

    def _grants_for(self, src: str, dst: str) -> List[Message]:
        """The transport's piggyback provider: ask the source node."""
        node = self.nodes.get(src)
        return node.grants_for(dst) if node is not None else []

    def report(self, *, title: Optional[str] = None) -> RunReport:
        """Assemble the :class:`~repro.observability.RunReport` so far."""
        return run_report(self, title=title)
