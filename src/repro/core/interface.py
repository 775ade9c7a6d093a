"""Interfaces: they connect components to ports and carry a protocol.

An interface owns (up to) an output port and an input port, a
:class:`~repro.protocols.base.Protocol`, and a current *detail level*.
Logical transfers are expanded by the protocol's codec for that level into
a timed sequence of wire values (paper section 2.1.3); incoming wire values
are reassembled back into payloads.

Each transfer's wire framing is self-describing (the header names the level
it was emitted at), so the *safe points* for detail switching are exactly
the transfer boundaries: a switch simply takes effect for the next
transfer, and an in-flight transfer always completes at the level it
started with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from .errors import ConfigurationError, RunLevelError
from .fastcopy import smart_copy
from .port import Port, PortDirection
# No cycle either way round: protocols/* import only core.errors.
from ..protocols.base import Protocol

if TYPE_CHECKING:  # pragma: no cover
    from .component import Component


class Interface:
    """Binds a component's behaviour to ports through a protocol."""

    def __init__(self, name: str, protocol: "Protocol", *,
                 level: Optional[str] = None,
                 out_port: Optional[str] = None,
                 in_port: Optional[str] = None) -> None:
        self.name = name
        self.protocol = protocol
        self.level = level if level is not None else protocol.default_level
        if self.level not in protocol.levels():
            raise RunLevelError(
                f"interface {name}: protocol {protocol.name} has no level "
                f"{self.level!r} (available: {sorted(protocol.levels())})")
        self._out_port_name = out_port
        self._in_port_name = in_port
        self.out_port: Optional[Port] = None
        self.in_port: Optional[Port] = None
        self.component: "Optional[Component]" = None
        self._xfer_seq = 0
        self._partial: dict[Any, dict] = {}
        #: Totals for bandwidth studies: (transfers, chunks, payload bytes).
        self.sent_transfers = 0
        self.sent_chunks = 0
        self.sent_payload_bytes = 0
        self.received_transfers = 0

    # ------------------------------------------------------------------
    def bind(self, component: "Component") -> None:
        """Attach to ``component``, creating the named ports if needed."""
        self.component = component
        if self._out_port_name is not None:
            self.out_port = component.ports.get(self._out_port_name) or \
                component.add_port(self._out_port_name, PortDirection.OUT)
        if self._in_port_name is not None:
            self.in_port = component.ports.get(self._in_port_name) or \
                component.add_port(self._in_port_name, PortDirection.IN)

    @property
    def full_name(self) -> str:
        owner = self.component.name if self.component is not None else "<unbound>"
        return f"{owner}.{self.name}"

    # ------------------------------------------------------------------
    # detail levels
    # ------------------------------------------------------------------
    def set_level(self, level: str) -> None:
        """Switch detail level; effective at the next transfer (safe point)."""
        if level not in self.protocol.levels():
            raise RunLevelError(
                f"{self.full_name}: protocol {self.protocol.name} has no "
                f"level {level!r}")
        self.level = level

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def emit(self, payload: Any, start_time: float,
             *, advance: Callable[[float], None]) -> float:
        """Expand ``payload`` at the current level and drive the wire.

        ``advance`` consumes the owning component's local time chunk by
        chunk; each wire value is posted at the component's local time after
        its chunk delay.  Returns the total transfer duration.  The port
        is checked once per transfer; the chunks go straight onto its net.
        """
        out_port = self.out_port
        component = self.component
        if out_port is None:
            raise ConfigurationError(f"{self.full_name}: no output port")
        if component is None:
            raise ConfigurationError(f"{self.full_name}: unbound interface")
        post = out_port.driven_net().post
        codec = self.protocol.codec(self.level)
        transfer_id = (component.name, self.name, self._xfer_seq)
        self._xfer_seq += 1
        total = 0.0
        chunks = 0
        for dt, wire in codec.expand(payload, transfer_id):
            advance(dt)
            total += dt
            post(wire, component.local_time, driver=out_port)
            chunks += 1
        self.sent_transfers += 1
        self.sent_chunks += chunks
        self.sent_payload_bytes += codec.payload_size(payload)
        return total

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "level": self.level,
            "xfer_seq": self._xfer_seq,
            "partial": smart_copy(self._partial),
            "sent_transfers": self.sent_transfers,
            "sent_chunks": self.sent_chunks,
            "sent_payload_bytes": self.sent_payload_bytes,
            "received_transfers": self.received_transfers,
        }

    def restore_state(self, state: dict) -> None:
        self.level = state["level"]
        self._xfer_seq = state["xfer_seq"]
        self._partial = smart_copy(state["partial"])
        self.sent_transfers = state["sent_transfers"]
        self.sent_chunks = state["sent_chunks"]
        self.sent_payload_bytes = state["sent_payload_bytes"]
        self.received_transfers = state["received_transfers"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Interface {self.full_name} {self.protocol.name}@{self.level}>"
