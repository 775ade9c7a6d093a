"""Pia nodes and their sockets (paper section 2).

"The Pia simulation system is a set of Pia nodes that can be interconnected
through a network.  Each node contains a number of sockets and each socket
can facilitate a connection to a design tool such as a simulator or a
compiler, or a device such as a processor, an ASIC or an FPGA."

A :class:`PiaNode` hosts one or more subsystems, routes channel traffic,
answers safe-time calls on behalf of its subsystems, and forwards hardware
calls to attached hardware servers.  Each node serves as both a client and
a server, and inter-node communication is hidden from the user
(section 2.2.1).

The node also owns its *round* — pump, refresh safe times, run each
subsystem to its horizon, flush (section 2.2.2.1) — and the grant ledger
that goes with it.  Every executor runs that one round body: it only
decides who calls :meth:`PiaNode.step` and how global quiescence is
detected.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError, TransportError
from ..core.subsystem import Subsystem
from ..transport.message import Message, MessageKind
from .channel import ChannelMode
from .conservative import SafeTimeClient, floor_grant

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ChannelEndpoint
    from .conservative import SafeTimeService

_SIGNAL = MessageKind.SIGNAL
_GRANT = MessageKind.SAFE_TIME_GRANT
_CONSERVATIVE = ChannelMode.CONSERVATIVE
_INF = float("inf")

#: Most events one :meth:`PiaNode.advance` dispatches for a subsystem on
#: conservative channels.  A source whose peers cannot send has an
#: unbounded horizon; the cap makes it yield to its node's round (pump,
#: flush, the executor's quiescence and fault checks) and bounds the
#: traffic it can queue in between.  Large enough that a slice amortises
#: the round, which is all it has to be — hence a constant, not a knob.
WINDOW_EVENTS = 1024


@dataclass
class Socket:
    """A named attachment point on a node.

    ``kind`` is free-form but three values are conventional: ``subsystem``
    (a simulator fragment), ``hardware`` (a remote hardware server, paper
    section 2.3) and ``tool`` (an external design tool behind a wrapper).
    """

    name: str
    kind: str
    target: Any


class PiaNode:
    """One host in the distributed Pia system."""

    def __init__(self, name: str, transport) -> None:
        self.name = name
        self.transport = transport
        self.subsystems: Dict[str, Subsystem] = {}
        self.sockets: Dict[str, Socket] = {}
        #: hooks by message kind for extension layers (snapshots, recovery).
        self.handlers: Dict[MessageKind, Callable[[Message], None]] = {}
        #: synchronous call services by kind (safe time, hardware).
        self.call_services: Dict[MessageKind, Callable[[Message], Message]] = {}
        #: ``observer(endpoint, message)`` per incoming SIGNAL while a
        #: Chandy-Lamport cut records channel state (none otherwise).
        self.signal_observers: List[Callable[..., None]] = []
        #: Serialises the node's own round against safe-time calls served
        #: from transport receiver threads (uncontended when the executor
        #: is single-threaded).
        self.lock = threading.RLock()
        #: subsystem name -> its safe-time client.
        self.clients: Dict[str, SafeTimeClient] = {}
        #: The safe-time server answering for this node's subsystems
        #: (installs itself; the executor picks the class).
        self.safe_time: "Optional[SafeTimeService]" = None
        #: While this returns True optimistic channels restrict, and are
        #: granted on, like conservative ones.  Only an executor that can
        #: roll back replaces it (its post-recovery conservative window).
        self.conservative_override: Callable[[], bool] = lambda: False
        #: The next virtual instant a service is owed at
        #: (:meth:`~repro.distributed.system.ServiceSchedule.next_instant`):
        #: no conservatively granted window crosses it.
        self.service_bound: Callable[[], float] = lambda: float("inf")
        #: ``refresh_due(subsystem, desired)``: ask now, or wait for a
        #: pushed grant (the cooperative executor's batched throttle)?
        self.refresh_due: Callable[[str, float], bool] = \
            lambda name, desired: True
        #: Visit order and endpoint map — see :meth:`membership_changed`.
        self._order: List[tuple] = []
        self._endpoints: Dict[str, "ChannelEndpoint"] = {}
        transport.register(name, call_handler=self.handle_call)

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------
    def add_socket(self, name: str, kind: str, target: Any) -> Socket:
        if name in self.sockets:
            raise ConfigurationError(f"{self.name}: duplicate socket {name!r}")
        socket = Socket(name, kind, target)
        self.sockets[name] = socket
        return socket

    # ------------------------------------------------------------------
    # subsystems
    # ------------------------------------------------------------------
    def add_subsystem(self, subsystem: Subsystem) -> Subsystem:
        if subsystem.name in self.subsystems:
            raise ConfigurationError(
                f"{self.name}: duplicate subsystem {subsystem.name}")
        if subsystem.node is not None:
            raise ConfigurationError(
                f"subsystem {subsystem.name} already lives on "
                f"{subsystem.node.name}")
        subsystem.node = self
        self.subsystems[subsystem.name] = subsystem
        self.clients[subsystem.name] = SafeTimeClient(subsystem)
        self.add_socket(f"subsystem:{subsystem.name}", "subsystem", subsystem)
        self.membership_changed()
        return subsystem

    def membership_changed(self) -> None:
        """A subsystem joined or gained a channel end: every client claims
        its ends, and the one order the round and the grant ledger walk —
        ``(subsystem, client, endpoints by channel id, the conservative
        ones)`` by subsystem name — is sorted, with the channel id ->
        endpoint map ``dispatch`` routes by (one end per node)."""
        order: List[tuple] = []
        routes: Dict[str, "ChannelEndpoint"] = {}
        for name, subsystem in sorted(self.subsystems.items()):
            client = self.clients[name]
            client.channels_changed()
            endpoints = [subsystem.channels[channel_id]
                         for channel_id in sorted(subsystem.channels)]
            order.append((subsystem, client, endpoints,
                          [endpoint for endpoint in endpoints
                           if endpoint.channel.mode is _CONSERVATIVE]))
            for endpoint in endpoints:
                routes[endpoint.channel.channel_id] = endpoint
        self._order = order
        self._endpoints = routes

    def subsystem(self, name: str) -> Subsystem:
        try:
            return self.subsystems[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: no subsystem named {name!r}") from None

    def _endpoint_for(self, channel_id: str) -> "ChannelEndpoint":
        endpoint = self._endpoints.get(channel_id)
        if endpoint is None:
            raise ConfigurationError(
                f"{self.name}: no endpoint for channel {channel_id!r}")
        return endpoint

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def pump(self, *, limit: Optional[int] = None) -> int:
        """Drain and dispatch incoming messages; returns how many."""
        messages = self.transport.poll(self.name, limit=limit)
        for message in messages:
            self.dispatch(message)
        return len(messages)

    def dispatch(self, message: Message) -> None:
        # Signals and grants first, by identity: the enum-keyed hook
        # table (a snapshot layer's MARK) is for the rare kinds.
        kind = message.kind
        if kind is _SIGNAL or kind is _GRANT:
            try:
                endpoint = self._endpoints[message.channel]
            except KeyError:
                endpoint = self._endpoint_for(message.channel)
            if kind is _GRANT:
                endpoint.apply_grant(message.time, message.payload)
                return
            for observer in self.signal_observers:
                observer(endpoint, message)
            endpoint.receive_signal(message)
            return
        hook = self.handlers.get(kind)
        if hook is None:
            raise TransportError(
                f"{self.name}: no handler for {message.kind} message")
        hook(message)

    def handle_call(self, message: Message) -> Message:
        """Synchronous service entry point (safe time, hardware calls)."""
        service = self.call_services.get(message.kind)
        if service is None:
            raise TransportError(
                f"{self.name}: no call service for {message.kind}")
        return service(message)

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def start(self) -> None:
        for subsystem in self.subsystems.values():
            subsystem.start()

    def advance(self, subsystem: Subsystem, until: float = _INF) -> int:
        """Run ``subsystem`` as far as its safe-time horizon allows.

        A horizon short of the next event is refreshed first — unless
        :attr:`refresh_due` says to wait for a piggybacked or pushed
        grant instead.  A subsystem on conservative channels runs
        one window: within the horizon, never across
        :attr:`service_bound`, at most :data:`WINDOW_EVENTS` events.
        (One with only optimistic channels, or none, runs ahead
        unclamped — that is what those are for.)  The next-event time
        and the horizon are read once, and again only after a refresh.
        Returns the number of events dispatched.
        """
        client = self.clients[subsystem.name]
        window = None
        if client.restricted:
            bound = self.service_bound()
            if bound < until:
                until = bound
            window = WINDOW_EVENTS
        queue = subsystem.scheduler.queue
        next_time = queue.next_time()
        if next_time == _INF or next_time > until:
            return 0
        horizon = client.horizon()
        if horizon < next_time:
            desired = min(next_time, until)
            # The refresh performs blocking network calls; it must happen
            # outside the lock or two nodes refreshing each other deadlock.
            if not self.refresh_due(subsystem.name, desired):
                return 0
            client.refresh(desired)
            next_time = queue.next_time()
            horizon = client.horizon()
        if next_time > horizon:
            return 0
        with self.lock:
            # Re-read before every dispatch — a send shrinks it via the
            # echo ledger — unless nothing can: an unbounded horizon
            # whose every peer is silent (no ledger), or no channel.
            if horizon != _INF or not all(
                    endpoint.peer_silent
                    for endpoint in subsystem.channels.values()):
                horizon = client.horizon
            return subsystem.run(until, horizon=horizon, max_events=window)

    def step(self, until: float = _INF) -> Tuple[bool, int]:
        """One whole round of this node: pump, advance every subsystem
        (pumping before each if anything can have arrived since the last
        look), ship what the round queued.

        Returns ``(progress, dispatched)``: whether the opening pump or
        any subsystem moved, and how many events were dispatched.
        """
        transport = self.transport
        ready = transport.ready
        name = self.name
        progress = False
        # Whether a look at the inbox may now see something the last one
        # did not: only a pump (a held delivery ticks, a dispatch can
        # send) or an advance can make it so.
        stale = ready(name)
        if stale:
            with self.lock:
                progress = self.pump() > 0
        dispatched = 0
        for subsystem, __, __, __ in self._order:
            if stale and ready(name):
                with self.lock:
                    self.pump()
            dispatched += self.advance(subsystem, until)
            stale = True
        # Round boundary: ship everything this node queued.  Outside the
        # lock — the piggyback provider try-acquires it.
        if transport.batcher.queues:
            transport.flush_batches(src=name)
        return progress or dispatched > 0, dispatched

    # ------------------------------------------------------------------
    # the grant ledger
    # ------------------------------------------------------------------
    def grants_for(self, dst: str) -> List[Message]:
        """Safe-time grants riding on a batch frame from here to ``dst``.

        Called by a batching transport at flush time.  For every granting
        endpoint whose peer lives on ``dst``, the current grant (plus
        consumption/production counts, exactly as in a served reply) is
        appended behind the frame's data messages — so by the time the
        receiver applies it, everything the grant's floor assumed has
        already been injected.  Peers then advance without a synchronous
        safe-time round trip: O(peers) frames per round instead of
        O(messages + requests).

        A subsystem grants on its conservative endpoints, and on every
        endpoint while :attr:`conservative_override` holds.

        Flush points may sit inside or outside the node lock depending on
        who triggers them, so the lock is *try*-acquired: failing just
        means this frame carries no grants (the explicit safe-time call
        path still guarantees progress), whereas blocking here could
        deadlock two nodes flushing towards each other.
        """
        if not self.lock.acquire(blocking=False):
            return []
        try:
            conservative = self.conservative_override()
            grants: List[Message] = []
            for subsystem, __, endpoints, guarded in self._order:
                next_time = subsystem.scheduler.queue.next_time()
                for endpoint in endpoints if conservative else guarded:
                    if endpoint.peer_node != dst:
                        continue
                    grants.append(endpoint.grant_message(floor_grant(
                        endpoint, next_time, conservative)))
            return grants
        finally:
            self.lock.release()

    def stalled_grants(self) -> Dict[str, List[Message]]:
        """Standalone grants, by destination node, for peers recorded as
        stalled whose want the local floor has now passed, or that are
        owed consumption counts.  Each one pushed is one frame replacing
        the two-frame request round trip the peer would otherwise issue.
        """
        conservative = self.conservative_override()
        by_dst: Dict[str, List[Message]] = {}
        for subsystem, client, endpoints, guarded in self._order:
            # A subsystem that can still run will talk to its peers
            # through ordinary data frames (whose piggybacked grants
            # carry everything below for free); only one that cannot —
            # stalled below its next event, or idle — has news its
            # peers may never otherwise learn.
            next_time = subsystem.scheduler.queue.next_time()
            runnable = next_time != _INF and client.horizon() >= next_time
            for endpoint in endpoints if conservative else guarded:
                want = endpoint.peer_want
                # Unreported consumption must reach the peer so it can
                # release its echo ledger (its requests are throttled
                # under batching, counting on exactly this push) — unless
                # it is known to have dropped the ledger for a silent end.
                stale = (endpoint.injected > endpoint.injected_reported
                         and not endpoint.silence_served)
                if runnable and not want:
                    # Still making local progress: the next data frame
                    # (or a later round's push, once stalled or idle)
                    # reports counts and grants for free.
                    continue
                grant = floor_grant(endpoint, next_time, conservative)
                if want:
                    # The peer told us what it needs: push only once
                    # the floor passes it (or counts must flow).
                    if grant < want and not stale:
                        continue
                elif not stale and grant <= endpoint.granted_reported:
                    continue    # nothing the peer doesn't already know
                by_dst.setdefault(endpoint.peer_node, []).append(
                    endpoint.grant_message(grant))
        return by_dst

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PiaNode {self.name} subsystems={sorted(self.subsystems)} "
                f"sockets={len(self.sockets)}>")
