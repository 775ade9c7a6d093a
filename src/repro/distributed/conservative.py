"""The safe-time protocol for conservative channels (paper section 2.2.2.1).

"Before a subsystem can advance its version of virtual time, it must first
make sure that no conservative channels will send it any messages with an
earlier time-stamp.  To ensure this, each subsystem can request a safe time
from the subsystem on the far end of the channel."

The grant a subsystem reports is "essentially its own subsystem time with
all restrictions from the opposite processor removed" — otherwise the two
would deadlock waiting on each other.  Concretely, the grant to requester
``R`` is::

    min( next local event time,
         effective horizons of conservative channels whose peer is not R )
    + channel delay towards R

A grant only bounds traffic *not caused by R's own messages*; the echoes R
may provoke are bounded on R's side by its **echo ledger**: every send
records the earliest time a reaction could come back, and the entry is
released only once a grant reply confirms the peer consumed the message
(at which point any reaction is visible in the peer's own floor).  Grant
replies also carry the peer's sent-message count so a requester never
accepts a grant while peer traffic is still in flight towards it.

The rule is stated over a *directed* graph, and the protocol honours the
direction: an end of a channel that no port can drive
(:attr:`ChannelEndpoint.sends` is false — a consumer's end of a one-way
stream) will never send, so what it grants is ``UNBOUNDED`` and the
grant says so.  The peer that hears it keeps no echo ledger for that
channel and is never restricted by it again; it runs in windows bounded
only by its other channels, the executor's service instants and the
slice cap (:meth:`PiaNode.advance`).  Until it has heard, it assumes the
peer sends — a process that holds only its own end learns the fact from
its first reply, exactly as an in-process executor does.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from ..core.errors import ConfigurationError
from ..observability import BoundCounter, TraceKind
from ..transport.message import Message, MessageKind
from .channel import ChannelEndpoint, ChannelMode

if TYPE_CHECKING:  # pragma: no cover
    from ..core.subsystem import Subsystem
    from .node import PiaNode

#: Grants at or beyond this are treated as "unrestricted".
UNBOUNDED = float("inf")

_CONSERVATIVE = ChannelMode.CONSERVATIVE


def compute_grant(subsystem: "Subsystem", requester: str,
                  *, conservative_override: bool = False) -> float:
    """The safe time ``subsystem`` grants to peer subsystem ``requester``:
    a lower bound on the stamp of anything it will send next, plus the
    channel's delay.

    Every future send originates either from a pending local event, from a
    message arriving on an in-channel (bounded by that channel's effective
    horizon: the peer's grant capped by our own unconfirmed echoes), or as
    an echo of something the *requester* sent us — which the requester
    itself bounds with its echo ledger, hence its channel is left out (the
    paper's deadlock-avoidance rule).  ``conservative_override`` makes
    optimistic channels count as restrictions too (used while a recovery
    window forces conservatism).

    Grants are *not* monotone: they describe the subsystem's current
    floor, which legitimately drops when new work (e.g. an echo of the
    requester's own message) enters its queue.  The requester's echo
    ledger and the in-flight count check in :meth:`SafeTimeClient.refresh`
    are what make accepting a grant safe.
    """
    endpoint = _endpoint_towards(subsystem, requester)
    if endpoint.declared_silent is None:
        endpoint.declared_silent = not endpoint.sends
    if endpoint.declared_silent:
        # Nothing can ever be forwarded from this end — infinite
        # lookahead read off the port directions.  The grant says so
        # (see ``ChannelEndpoint.note_reported``), and having said so is
        # binding: ``forward`` raises from here on.
        return UNBOUNDED
    floor = subsystem.scheduler.queue.next_time()
    for other in subsystem.channels.values():
        if other.peer_subsystem == requester:
            continue
        if conservative_override or other.channel.mode is _CONSERVATIVE:
            limit = other.effective_horizon()
            if limit < floor:
                floor = limit
    return floor + endpoint.channel.delay


def floor_grant(endpoint: ChannelEndpoint, next_time: float,
                conservative: bool) -> float:
    """:func:`compute_grant` towards ``endpoint``'s peer, recomputed only
    when an input moved: the next-event time (which the caller read),
    the override, or a sibling end's horizon (``siblings_moved``)."""
    moved = endpoint.siblings_moved
    kept = endpoint.kept_grant
    if kept is not None and kept[0] == moved and kept[1] == next_time \
            and kept[2] == conservative:
        return kept[3]
    grant = compute_grant(endpoint.subsystem, endpoint.peer_subsystem,
                          conservative_override=conservative)
    endpoint.kept_grant = (moved, next_time, conservative, grant)
    return grant


def _endpoint_towards(subsystem: "Subsystem", peer: str) -> ChannelEndpoint:
    for endpoint in subsystem.channels.values():
        if endpoint.peer_subsystem == peer:
            return endpoint
    raise ConfigurationError(
        f"{subsystem.name}: no channel towards {peer!r}")


class SafeTimeService:
    """Per-node server side of the safe-time protocol.

    Before granting, the service transitively refreshes the target
    subsystem's *own* restricting horizons (excluding the requester, and
    never back along the request path): an idle subsystem in the middle of
    a chain never refreshes on its own, yet its stale horizons must not
    poison the grants it hands out.  The simple-cycle-only topology rule
    bounds this recursion.

    Installs itself as ``node.safe_time`` and as the node's
    ``SAFE_TIME_REQUEST`` call service.
    """

    def __init__(self, node: "PiaNode") -> None:
        self.node = node
        self.requests_served = 0
        self._served = BoundCounter("safetime.served")
        node.safe_time = self
        node.call_services[MessageKind.SAFE_TIME_REQUEST] = self.serve

    def serve(self, message: Message) -> Message:
        self._refresh_target(message)
        return self._grant_reply(message)

    def _refresh_target(self, message: Message) -> None:
        """The transitive refresh: blocking calls towards the target's
        other peers, so never made while holding the node lock."""
        requester, target, path = message.payload
        client = self.node.clients.get(target)
        if client is not None:
            client.refresh(message.time, exclude=requester,
                           path=tuple(path) + (target,))

    def _grant_reply(self, message: Message) -> Message:
        """Compute the grant, update the endpoint's ledger and build the
        reply — the step every safe-time server shares."""
        requester, target, __ = message.payload
        subsystem = self.node.subsystem(target)
        self.requests_served += 1
        self._served.inc(subsystem.scheduler.telemetry)
        desired = message.time
        grant = compute_grant(
            subsystem, requester,
            conservative_override=self.node.conservative_override())
        endpoint = _endpoint_towards(subsystem, requester)
        # An unsatisfied request leaves the peer stalled; remember what it
        # wanted so a batching executor can push a grant the moment the
        # floor passes it, sparing the peer its next request round trip.
        endpoint.peer_want = desired if grant < desired else 0.0
        # The requester blocks until a reply reaches it, so a declaration
        # on this one is known to have been heard.
        endpoint.silence_served = endpoint.declared_silent
        # The reply carries consumption/production counts so the requester
        # can (a) release confirmed echo-ledger entries and (b) refuse the
        # grant while our messages to it are still in flight.
        return message.reply(MessageKind.SAFE_TIME_REPLY, time=grant,
                             payload=endpoint.note_reported(grant))


class SafeTimeClient:
    """Per-subsystem client side: refresh horizons, compute run bounds.

    The horizon is read before every dispatched event, so it is kept as
    a value: every site that can move an end's effective horizon ends in
    :meth:`moved`, and :meth:`horizon` walks the ends only when the
    count of such moves has changed since its last walk."""

    def __init__(self, subsystem: "Subsystem") -> None:
        self.subsystem = subsystem
        self.requests_sent = 0
        # Request ids are purely diagnostic (calls are synchronous, so
        # nothing correlates by id), but they are *encoded on the wire* —
        # an instance-local counter keeps the byte accounting of
        # identical runs identical regardless of what the process ran
        # before.
        self._request_ids = itertools.count(1)
        self._requests = BoundCounter("safetime.requests")
        self._accepted = BoundCounter("safetime.grants_accepted")
        self.moves = 0
        #: ``(moves, horizon)``: the horizon as of that count.
        self._kept = (-1, UNBOUNDED)
        self.endpoints: "list[ChannelEndpoint]" = []
        #: The subsystem's one end, when it is conservative: its
        #: effective horizon *is* the horizon.
        self._sole: Optional[ChannelEndpoint] = None
        #: Is this subsystem on a conservative channel at all, whatever
        #: its horizon happens to be right now?  (By construction, not by
        #: a passing recovery window: that one ends mid-run.)
        self.restricted = False
        self.channels_changed()

    def channels_changed(self) -> None:
        """A channel end joined: claim every end and re-read which ones
        restrict."""
        self.endpoints = list(self.subsystem.channels.values())
        self.restricted = False
        for endpoint in self.endpoints:
            endpoint.client = self
            if endpoint.channel.mode is _CONSERVATIVE:
                self.restricted = True
        self._sole = self.endpoints[0] if len(self.endpoints) == 1 \
            and self.restricted else None
        self.moves += 1

    def moved(self, endpoint: ChannelEndpoint) -> None:
        """``endpoint``'s effective horizon may have moved: keep the sole
        end's new one at once, else leave the horizon and the sibling
        ends' kept grants to be recomputed.  The count moves before
        anything is read, so a racing walk can only store a value that a
        later count marks stale."""
        self.moves += 1
        if endpoint is self._sole:
            moves = self.moves
            self._kept = (moves, endpoint.effective_horizon())
            return
        for sibling in self.endpoints:
            if sibling is not endpoint:
                sibling.siblings_moved += 1

    def _restricting_endpoints(self):
        for endpoint in self.endpoints:
            if endpoint.mode is ChannelMode.CONSERVATIVE \
                    or self.subsystem.node.conservative_override():
                yield endpoint

    def horizon(self) -> float:
        """How far this subsystem may currently run: the lowest
        effective horizon among :meth:`_restricting_endpoints` — the
        kept value, unless a horizon has moved since it was walked."""
        kept = self._kept
        if kept[0] == self.moves:
            return kept[1]
        return self._walk()

    def _walk(self) -> float:
        """The horizon walked afresh, asking the node about a recovery
        window at most once; not kept if an optimistic end took part (the
        window ends with virtual time, which moves no count)."""
        moves = self.moves
        horizon = UNBOUNDED
        override = None
        for endpoint in self.endpoints:
            if endpoint.channel.mode is not _CONSERVATIVE:
                if override is None:
                    override = self.subsystem.node.conservative_override()
                if not override:
                    continue
            limit = endpoint.effective_horizon()
            if limit < horizon:
                horizon = limit
        if override is None:
            self._kept = (moves, horizon)
        return horizon

    def refresh(self, desired: float, *, exclude: Optional[str] = None,
                path: tuple = ()) -> float:
        """Request fresh grants from every peer restricting us below
        ``desired``; returns the new horizon.

        ``exclude`` removes the requester's restriction (paper 2.2.2.1);
        ``path`` is the chain of subsystems already being served, so
        transitive refreshes terminate.
        """
        node = self.subsystem.node
        if node is None:
            raise ConfigurationError(
                f"{self.subsystem.name} is not attached to a node")
        if not path:
            path = (self.subsystem.name,)
        for endpoint in self._restricting_endpoints():
            if endpoint.peer_subsystem == exclude:
                continue
            if endpoint.peer_subsystem in path:
                continue
            if endpoint.effective_horizon() >= desired:
                continue
            endpoint.safe_time_requests += 1
            self.requests_sent += 1
            telemetry = self.subsystem.scheduler.telemetry
            self._requests.inc(telemetry)
            reply = node.transport.call(Message(
                kind=MessageKind.SAFE_TIME_REQUEST,
                src=node.name,
                dst=endpoint.peer_node,
                channel=endpoint.channel.channel_id,
                time=desired,
                payload=(self.subsystem.name, endpoint.peer_subsystem, path),
                request_id=next(self._request_ids),
            ))
            # Taken only when nothing of the peer's is in flight towards
            # us, so the grant fully describes its floor.  (Otherwise keep
            # the old grant; the in-flight message will be pumped before
            # the next refresh.)
            if endpoint.accept_grant(reply.time, reply.payload):
                if telemetry.enabled:
                    self._accepted.inc(telemetry)
                    telemetry.trace(TraceKind.GRANT, time=reply.time,
                                    subject=self.subsystem.name,
                                    peer=endpoint.peer_subsystem,
                                    channel=endpoint.channel.channel_id,
                                    desired=desired)
        return self.horizon()

    def blocking_endpoint(self) -> Optional[ChannelEndpoint]:
        """The endpoint currently pinning this subsystem's horizon.

        Returns the restricting endpoint with the lowest effective
        horizon (ties broken by peer subsystem name), or ``None`` when
        nothing restricts the subsystem below infinity.  This is a live
        diagnostic — under the threaded/multiprocess executors the answer
        depends on when grants happen to land, so it feeds status views,
        not deterministic reports.
        """
        worst: Optional[ChannelEndpoint] = None
        worst_h = UNBOUNDED
        for endpoint in self._restricting_endpoints():
            h = endpoint.effective_horizon()
            if worst is None or h < worst_h or (
                    h == worst_h
                    and endpoint.peer_subsystem < worst.peer_subsystem):
                worst, worst_h = endpoint, h
        if worst is None or worst_h == UNBOUNDED:
            return None
        return worst
