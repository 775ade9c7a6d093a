"""Nets: the wires interconnecting ports.

A net fans a posted value out to every attached port except the driver,
after the net's propagation ``delay``.  Nets are the only user object the
distributed layer ever splits across subsystems (paper section 2.2.1); a
split introduces hidden ports owned by channel components, which are plain
:class:`~repro.core.port.Port` objects as far as the net is concerned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .errors import ConfigurationError
from .events import Event, EventKind
from .port import Port

_SIGNAL = EventKind.SIGNAL

if TYPE_CHECKING:  # pragma: no cover
    from .subsystem import Subsystem


class Net:
    """A multi-point wire carrying timestamped values between ports."""

    def __init__(self, name: str, *, delay: float = 0.0) -> None:
        if delay < 0:
            raise ConfigurationError(f"net {name}: negative delay {delay}")
        self.name = name
        self.delay = delay
        self.ports: list[Port] = []
        self.subsystem: "Optional[Subsystem]" = None
        #: Last value posted and when, for switchpoint signal conditions.
        self.value: Any = None
        self.last_change: float = float("-inf")
        #: Number of values ever posted on this net.
        self.posts = 0
        #: Called as ``observer(net, time, value)`` on every value change
        #: (waveform tracers, debugger watchpoints).
        self.observers: list = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect(self, *ports: Port) -> "Net":
        """Attach one or more ports; returns ``self`` for chaining."""
        for port in ports:
            if port not in self.ports:
                port.attach(self)
                self.ports.append(port)
        return self

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def post(self, value: Any, at_time: float, *, driver: Optional[Port] = None) -> None:
        """Schedule delivery of ``value`` to every listener except ``driver``.

        Deliveries land at ``at_time + self.delay`` as ``SIGNAL`` events on
        the owning subsystem's queue.
        """
        subsystem = self.subsystem
        if subsystem is None:
            raise ConfigurationError(
                f"net {self.name} is not registered with any subsystem"
            )
        self.posts += 1
        self.value = value
        self.last_change = at_time
        for observer in self.observers:
            observer(self, at_time, value)
        # A bare time is "at PRIORITY_SIGNAL" to both Event backends; the
        # queue stamps the sequence number either way.
        arrival = at_time + self.delay
        schedule = subsystem.scheduler.schedule
        for port in self.ports:
            # Multi-driver nets: other pure drivers see the value on the
            # wire but have no receive path — skip them.
            if port is not driver and (port.direction.can_receive
                                       or port.hidden):
                schedule(Event(arrival, _SIGNAL, port, value))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ",".join(port.full_name for port in self.ports)
        return f"<Net {self.name} [{names}]>"
