"""Ports: the connection points between components and nets.

In Pia's object model (paper section 2.1) *components* expose behaviour,
*interfaces* connect components to *ports*, and ports are interconnected
through *nets*.  A port buffers the timestamped values delivered to it until
the owning component consumes them.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from .errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .component import Component
    from .net import Net


class PortDirection(enum.Enum):
    """Data direction of a port, from the owning component's viewpoint."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"


# ``can_receive`` / ``can_drive`` as plain attributes of each member: a
# property here is a Python-level call on every word delivered and posted.
for _direction in PortDirection:
    _direction.can_receive = _direction is not PortDirection.OUT
    _direction.can_drive = _direction is not PortDirection.IN
del _direction


class Port:
    """A named endpoint on a component.

    ``hidden`` marks the extra ports the distributed layer introduces when a
    net is split across subsystems (paper section 2.2.1); hidden ports belong
    to channel components and never appear in user-facing listings.
    """

    def __init__(self, name: str, direction: PortDirection = PortDirection.INOUT,
                 *, owner: "Optional[Component]" = None, hidden: bool = False) -> None:
        self.name = name
        self.direction = direction
        self.owner = owner
        self.hidden = hidden
        self.net: "Optional[Net]" = None
        #: Timestamped values delivered but not yet consumed: (time, value).
        self.buffer: deque[tuple[float, Any]] = deque()
        #: Count of values ever delivered to this port.
        self.delivered = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    @property
    def full_name(self) -> str:
        owner = self.owner.name if self.owner is not None else "<unbound>"
        return f"{owner}.{self.name}"

    def attach(self, net: "Net") -> None:
        """Join ``net``; a port belongs to at most one net."""
        if self.net is not None and self.net is not net:
            raise ConfigurationError(
                f"port {self.full_name} is already on net {self.net.name}"
            )
        self.net = net

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def deliver(self, time: float, value: Any) -> None:
        """Buffer a value that arrived at virtual ``time``."""
        if not self.direction.can_receive and not self.hidden:
            raise ConfigurationError(
                f"output port {self.full_name} cannot receive values"
            )
        self.buffer.append((time, value))
        self.delivered += 1

    def drive(self, value: Any, at_time: float) -> None:
        """Place ``value`` on the attached net at virtual time ``at_time``."""
        self.driven_net().post(value, at_time, driver=self)

    def driven_net(self) -> "Net":
        """The attached net, if this port may drive one (else raises)."""
        if not self.direction.can_drive and not self.hidden:
            raise ConfigurationError(
                f"input port {self.full_name} cannot drive its net"
            )
        if self.net is None:
            raise ConfigurationError(f"port {self.full_name} is not on any net")
        return self.net

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = " hidden" if self.hidden else ""
        return f"<Port {self.full_name} {self.direction.value}{tag}>"
