"""Network latency/bandwidth models for the simulated Internet.

The paper's evaluation ran two Pia nodes "on Linux/Pentium Pro 200MHz
workstations, both on the same subnet", with the remote-operation numbers
dominated by per-message network overhead.  We model links as
``latency + size/bandwidth`` pipes; the accounting layer sums these to
yield the *modelled wall-clock* network component of each experiment
(DESIGN.md, substitutions table).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError


@dataclass(frozen=True)
class LatencyModel:
    """A point-to-point link: fixed per-message latency plus serialisation."""

    name: str
    #: One-way per-message latency, in (wall) seconds.
    latency: float
    #: Bytes per second; ``inf`` means serialisation is free.
    bandwidth: float = float("inf")
    #: Deterministic jitter fraction applied per message (0 disables).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError(f"{self.name}: negative latency")
        if self.bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: bandwidth must be > 0")
        if not 0 <= self.jitter < 1:
            raise ConfigurationError(f"{self.name}: jitter must be in [0, 1)")

    def delay(self, size_bytes: int, *, seq: int = 0) -> float:
        """Wall-clock delay for one message of ``size_bytes``.

        Jitter is deterministic in ``seq`` (message ordinal) so runs are
        reproducible: it cycles through +/- ``jitter`` of the base delay.
        """
        base = self.latency + size_bytes / self.bandwidth
        if self.jitter:
            # A fixed 8-phase triangular pattern keeps results reproducible.
            phase = (seq % 8) / 7.0 * 2.0 - 1.0          # -1 .. +1
            base *= 1.0 + self.jitter * phase
        return base


#: Both subsystems in one process: communication is effectively free.
SAME_HOST = LatencyModel("same-host", latency=2e-6, bandwidth=400e6)

#: The paper's measurement setup: two workstations on one subnet
#: (10 Mbit/s Ethernet era: ~0.3 ms RTT/2, ~1.2 MB/s).
LAN = LatencyModel("lan", latency=3e-4, bandwidth=1.2e6)

#: A 1998 cross-country Internet path: ~35 ms one way, ~128 kB/s.
INTERNET = LatencyModel("internet", latency=35e-3, bandwidth=128e3)

#: A modern broadband WAN, for the ablation sweeps.
BROADBAND = LatencyModel("broadband", latency=8e-3, bandwidth=12.5e6)