"""Channels between subsystems (paper sections 2.2.1 and 2.2.2).

Between each pair of communicating subsystems is a *channel*, across which
all communication occurs.  Each channel is associated with a pair of dummy
*channel components* (one per subsystem); every net split across the pair
contributes a hidden port owned by that channel component.  Channel
components are proxies for the opposite subsystem: they forward local net
activity over the transport and inject remote activity into the local
scheduler.  They have no thread of their own — they run on the subsystem's
scheduler, exactly as the paper describes.

A channel is *conservative* or *optimistic*:

* on a conservative channel, a subsystem may not advance past the safe
  time granted by the opposite side (see
  :mod:`repro.distributed.conservative`);
* on an optimistic channel it may run ahead, accepting that a straggler
  message forces a checkpoint restore (see
  :mod:`repro.distributed.optimistic`).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..core.component import Component
from ..core.errors import ConfigurationError, SimulationError
from ..core.events import Event, EventKind
from ..core.net import Net
from ..core.port import Port, PortDirection
from ..observability import BoundCounter
from ..observability.spans import span_of
from ..transport.message import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from ..core.subsystem import Subsystem
    from .conservative import SafeTimeClient


class ChannelMode(enum.Enum):
    CONSERVATIVE = "conservative"
    OPTIMISTIC = "optimistic"


class StragglerError(SimulationError):
    """An optimistic channel delivered a message into the local past."""

    def __init__(self, message: str, *, channel_id: str, receiver: str,
                 straggler_time: float, cause: Optional[tuple] = None) -> None:
        super().__init__(message)
        self.channel_id = channel_id
        #: The subsystem whose end received the straggler (it had already
        #: run past the message time).
        self.receiver = receiver
        self.straggler_time = straggler_time
        #: Span ``(origin, epoch, ordinal)`` of the straggler message
        #: (rollback records link to its causal chain), when tracing was
        #: on.
        self.cause = cause


class ChannelComponent(Component):
    """The dummy proxy component owning a channel's hidden ports.

    Delivery of a SIGNAL event to one of its hidden ports means a local
    net changed value; the component forwards it across the channel.
    """

    def __init__(self, name: str, endpoint: "ChannelEndpoint") -> None:
        super().__init__(name)
        self.endpoint = endpoint
        self._seal_infra()

    def deliver(self, event: Event) -> None:
        if event.kind not in (EventKind.SIGNAL, EventKind.INTERRUPT):
            return
        port: Port = event.target
        time = event.time
        self.local_time = max(self.local_time, time)
        self.endpoint.forward(port.name, time, event.payload)

    # The end's message ledgers are committed history, like the
    # scheduler's dispatch count: they travel in the image.  Its
    # safe-time protocol state is not; ``restore_node`` voids it.
    def snapshot(self):
        snap = super().snapshot()
        snap.extra["ledger"] = (self.endpoint.forwarded,
                                self.endpoint.injected)
        return snap

    def restore(self, snap) -> None:
        super().restore(snap)
        self.endpoint.forwarded, self.endpoint.injected = snap.extra["ledger"]


class ChannelEndpoint:
    """One subsystem's half of a channel.

    Slotted: endpoints sit on the per-message receive path (every remote
    signal flows through :meth:`receive_signal`/:meth:`inject`), so the
    fixed attribute layout keeps those paths free of dict lookups.
    """

    __slots__ = ("channel", "subsystem", "peer_subsystem", "peer_node",
                 "component", "_nets", "peer_grant", "pending_echoes",
                 "forwarded", "injected", "injected_reported",
                 "granted_reported", "stragglers",
                 "safe_time_requests", "peer_want", "peer_silent",
                 "declared_silent", "silence_served", "_piggybacked",
                 "client", "siblings_moved", "kept_grant")

    def __init__(self, channel: "Channel", subsystem: "Subsystem",
                 peer_subsystem: str, peer_node: str) -> None:
        self.channel = channel
        self.subsystem = subsystem
        self.peer_subsystem = peer_subsystem
        self.peer_node = peer_node
        self.component = ChannelComponent(
            f"__channel_{channel.channel_id}_{subsystem.name}", self)
        subsystem.add(self.component)
        #: The client keeping the subsystem's horizon (claims the end once
        #: both are on a node): every change to this end's grant or echo
        #: ledger ends in ``client.moved(self)``.
        self.client: "Optional[SafeTimeClient]" = None
        #: Moves of the sibling ends' horizons, which this end's grants
        #: read (:func:`~repro.distributed.conservative.floor_grant`).
        self.siblings_moved = 0
        self.kept_grant: Optional[tuple] = None
        subsystem.channels[channel.channel_id] = self
        if subsystem.node is not None:
            subsystem.node.membership_changed()
        #: hidden-port name -> local half-net it taps.
        self._nets: dict[str, Net] = {}
        # --- safe-time state (conservative protocol) ---
        #: Latest safe time the peer granted us.  A grant only bounds
        #: traffic *not caused by our own messages*; echoes of our sends
        #: are bounded by the echo ledger below.
        self.peer_grant = 0.0
        #: Outstanding sends the peer has not yet confirmed consuming:
        #: (send ordinal, earliest possible echo arrival time).
        self.pending_echoes: "deque[tuple[int, float]]" = deque()
        #: Messages sent/received over this endpoint (consumption
        #: confirmation rides on these counts in grant replies).
        self.forwarded = 0
        self.injected = 0
        #: Injected count last reported to the peer (batched fast path):
        #: consumption beyond this is pushed at the next round boundary
        #: so the peer can release its echo ledger without a call.
        self.injected_reported = 0
        #: Watermark of the last grant value communicated to the peer
        #: (served, piggybacked or pushed).  A floor that rises above it
        #: is news the peer cannot learn any other way while idle.
        self.granted_reported = 0.0
        self.stragglers = 0
        self.safe_time_requests = 0
        #: The peer requested a safe time we could not yet grant (batched
        #: fast path): once our floor passes this, a grant is pushed to it
        #: instead of waiting for its next request round trip.
        self.peer_want = 0.0
        # --- directed safe time ---
        #: The peer said, on a grant, that its end cannot send.  Until it
        #: does, "unknown" means "sends": only this flag lifts the echo
        #: ledger, and only a grant we accepted sets it.
        self.peer_silent = False
        #: Whether our grants tell the peer this end cannot send.  Read
        #: off :attr:`sends` when the first grant is computed (``None``
        #: until then) and binding from there: a :meth:`forward` after a
        #: declaration would reach a peer that no longer bounds our
        #: echoes, so it raises.
        self.declared_silent: Optional[bool] = None
        #: The declaration went out on a *served* reply — the one grant
        #: the peer cannot have missed (it blocks until a reply arrives),
        #: so it has dropped its echo ledger and needs no more
        #: consumption reports.
        self.silence_served = False
        self._piggybacked = BoundCounter("safetime.piggybacked")

    # ------------------------------------------------------------------
    @property
    def mode(self) -> ChannelMode:
        return self.channel.mode

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def tap(self, net: Net) -> Port:
        """Attach a hidden port for ``net``; local posts will be forwarded."""
        if net.name in self._nets:
            raise ConfigurationError(
                f"channel {self.channel.channel_id} already taps {net.name}")
        port = self.component.add_port(net.name, PortDirection.INOUT,
                                       hidden=True)
        net.connect(port)
        self._nets[net.name] = net
        return port

    def _foreign_ports(self):
        """Every port on a tapped net except this end's own hidden one —
        visible ports and other channels' hidden ports alike."""
        own = self.component.ports
        for name, net in self._nets.items():
            hidden = own[name]
            for port in net.ports:
                if port is not hidden:
                    yield port

    @property
    def sends(self) -> bool:
        """Can anything ever be forwarded from this end?

        True when some foreign port on a tapped net can drive it.
        Another channel's hidden port counts (it injects remote values,
        which bounce to ours), so a relay sends.  Read from the ports as
        they are now; this is the one definition of direction, shared
        with :func:`~repro.distributed.topology.communication_edges`.
        """
        return any(port.direction.can_drive for port in self._foreign_ports())

    @property
    def listens(self) -> bool:
        """Does anything on this side see what the peer sends?"""
        return any(port.direction.can_receive
                   for port in self._foreign_ports())

    # ------------------------------------------------------------------
    # outgoing
    # ------------------------------------------------------------------
    def forward(self, net_name: str, time: float, value: Any) -> None:
        """Ship a local net change to the peer subsystem."""
        channel = self.channel
        if self.declared_silent:
            raise SimulationError(
                f"channel {channel.channel_id}: {self.subsystem.name} "
                f"forwards {net_name!r} at {time:g} after declaring this "
                "end silent — a driver was wired onto a tapped net after "
                "the run started, and the peer no longer bounds its echoes")
        node = self.subsystem.node
        stamp = time + channel.delay
        self.forwarded += 1
        node.transport.send(Message(
            kind=MessageKind.SIGNAL,
            src=node.name,
            dst=self.peer_node,
            channel=channel.channel_id,
            time=stamp,
            payload=(self.subsystem.name, net_name, value),
        ))
        # Echo ledger: anything the peer does in reaction to this message
        # can come back no earlier than stamp + return delay.  The entry
        # is released only when a grant reply confirms the peer consumed
        # the message — at which point echoes are reflected in the peer's
        # own floor (its queue and its own echo ledgers).  A peer that
        # cannot send cannot echo: no entry.
        if not self.peer_silent:
            self.pending_echoes.append((self.forwarded,
                                        stamp + channel.delay))
            self.client.moved(self)

    def effective_horizon(self) -> float:
        """How far this endpoint lets its subsystem run: the peer's
        grant, capped by the earliest possible arrival of an unconfirmed
        echo."""
        grant = self.peer_grant
        echoes = self.pending_echoes
        if echoes and echoes[0][1] < grant:
            return echoes[0][1]
        return grant

    def accept_grant(self, grant: float, counts: tuple) -> bool:
        """The acceptance rule for a grant, however it arrived (served
        reply, piggybacked or pushed); returns whether it was taken.

        ``counts`` is what the peer's :meth:`note_reported` built: its
        consumed and produced message counts, then a third element only
        if its end cannot send.  Echo entries the peer confirms consuming
        are released (their reactions now show in its floor), then the
        grant is accepted only if nothing of the peer's is still in
        flight towards us — a stale (lower) grant is always safe, a
        refused one is simply dropped.  An accepted grant from a silent
        peer also ends the echo ledger: nothing can come back.
        """
        echoes = self.pending_echoes
        while echoes and echoes[0][0] <= counts[0]:
            echoes.popleft()        # consumed: its echo is in the floor
        if self.injected < counts[1]:
            self.client.moved(self)
            return False
        self.peer_grant = grant
        if len(counts) > 2:
            self.peer_silent = True
            self.pending_echoes.clear()
        self.client.moved(self)
        return True

    def apply_grant(self, grant: float, counts: tuple) -> None:
        """Apply a *piggybacked or pushed* safe-time grant (batched fast
        path).  Grants ride behind the data messages of their batch
        frame, so the injected count already reflects everything the
        grant's floor assumed.  The explicit request path remains the
        fallback, so this is a liveness optimisation, never a safety
        one."""
        if self.accept_grant(grant, counts):
            self._piggybacked.inc(self.subsystem.scheduler.telemetry)

    def note_reported(self, grant: float) -> tuple:
        """Record that ``grant`` and the current consumption/production
        counts are on their way to the peer (served, piggybacked or
        pushed); returns the payload that travels with it — the counts,
        plus a marker only when this end has declared itself silent (so
        a two-way link's bytes are what they always were)."""
        self.injected_reported = self.injected
        self.granted_reported = grant
        if self.declared_silent:
            return (self.injected, self.forwarded, True)
        return (self.injected, self.forwarded)

    def grant_message(self, grant: float) -> Message:
        """The unsolicited grant (piggybacked on a batch frame or pushed
        standalone) telling the peer our floor is ``grant``."""
        if self.peer_want and grant >= self.peer_want:
            # This grant satisfies the peer's recorded stall.
            self.peer_want = 0.0
        return Message(
            kind=MessageKind.SAFE_TIME_GRANT,
            src=self.subsystem.node.name, dst=self.peer_node,
            channel=self.channel.channel_id, time=grant,
            payload=self.note_reported(grant),
        )

    def reset_sync_state(self) -> None:
        """Void all safe-time state (global rollback support); the
        message ledgers came back with the image."""
        self.peer_grant = 0.0
        self.peer_want = 0.0
        self.pending_echoes.clear()
        self.injected_reported = self.injected
        self.granted_reported = 0.0
        self.client.moved(self)

    # ------------------------------------------------------------------
    # incoming
    # ------------------------------------------------------------------
    def receive_signal(self, message: Message) -> None:
        """Inject a remote net change into the local scheduler."""
        __, net_name, value = message.payload
        try:
            net = self._nets[net_name]
        except KeyError:
            raise ConfigurationError(
                f"channel {self.channel.channel_id}: unknown net "
                f"{net_name!r}") from None
        now = self.subsystem.scheduler.now
        if message.time < now:
            self.stragglers += 1
            if self.mode is ChannelMode.CONSERVATIVE:
                raise SimulationError(
                    f"conservative channel {self.channel.channel_id} received "
                    f"a message at {message.time:g} after subsystem "
                    f"{self.subsystem.name} reached {now:g} — the safe-time "
                    "protocol has been violated")
            raise StragglerError(
                f"optimistic channel {self.channel.channel_id}: straggler at "
                f"{message.time:g} < subsystem time {now:g}",
                channel_id=self.channel.channel_id,
                receiver=self.subsystem.name,
                straggler_time=message.time, cause=span_of(message))
        self.inject(net, message.time, value)

    def inject(self, net: Net, time: float, value: Any) -> None:
        """Schedule a remote value on the local half-net (hidden port
        excluded, so the value does not bounce straight back)."""
        self.injected += 1
        net.posts += 1
        net.value = value
        net.last_change = time
        for observer in net.observers:
            observer(net, time, value)
        scheduler = self.subsystem.scheduler
        schedule = scheduler.schedule
        # Built with the span of the message being injected
        # (set by PiaNode.dispatch), so schedule() has nothing to copy.
        telemetry = scheduler.telemetry
        cause = telemetry.cause_cell.value if telemetry.enabled else None
        hidden = self.component.ports[net.name]
        signal = EventKind.SIGNAL
        for port in net.ports:
            if port is hidden:
                continue
            if not port.direction.can_receive and not port.hidden:
                continue
            # A bare time is "at PRIORITY_SIGNAL", as in Net.post.
            schedule(Event(time, signal, port, value, None, cause))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ChannelEndpoint {self.channel.channel_id} "
                f"@{self.subsystem.name} {self.mode.value}>")


class Channel:
    """A pair of endpoints joining two subsystems (possibly across nodes)."""

    def __init__(self, channel_id: str, mode: ChannelMode = ChannelMode.CONSERVATIVE,
                 *, delay: float = 0.0) -> None:
        if delay < 0:
            raise ConfigurationError(f"channel {channel_id}: negative delay")
        self.channel_id = channel_id
        self.mode = mode
        #: Virtual time a value takes to cross (also the lookahead the
        #: safe-time protocol can exploit).
        self.delay = delay
        self.endpoints: dict[str, ChannelEndpoint] = {}

    def attach(self, subsystem: "Subsystem", *, peer_subsystem: str,
               peer_node: str) -> ChannelEndpoint:
        if subsystem.name in self.endpoints:
            raise ConfigurationError(
                f"channel {self.channel_id} already attached to "
                f"{subsystem.name}")
        if len(self.endpoints) >= 2:
            raise ConfigurationError(
                f"channel {self.channel_id} already has two endpoints")
        endpoint = ChannelEndpoint(self, subsystem, peer_subsystem, peer_node)
        self.endpoints[subsystem.name] = endpoint
        return endpoint

    def split_net(self, net_a: Net, net_b: Net) -> None:
        """Register the two halves of a split net with the endpoints.

        ``net_a`` must live in one endpoint's subsystem and ``net_b`` in
        the other's; both halves share the original net's name.
        """
        if net_a.name != net_b.name:
            raise ConfigurationError(
                f"split halves must share a name: {net_a.name} != {net_b.name}")
        sides = list(self.endpoints.values())
        if len(sides) != 2:
            raise ConfigurationError(
                f"channel {self.channel_id} needs both endpoints attached "
                "before splitting nets")
        by_subsystem = {ep.subsystem: ep for ep in sides}
        ep_a = by_subsystem.get(net_a.subsystem)
        ep_b = by_subsystem.get(net_b.subsystem)
        if ep_a is None or ep_b is None or ep_a is ep_b:
            raise ConfigurationError(
                f"net halves {net_a.name!r} are not on this channel's "
                "two subsystems")
        ep_a.tap(net_a)
        ep_b.tap(net_b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Channel {self.channel_id} {self.mode.value} d={self.delay:g}>"
