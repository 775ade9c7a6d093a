"""Heartbeat-based failure detection.

A node is *suspected* once its most recent heartbeat is older than the
timeout.  The multiprocess supervisor is the one user: each worker's
status reply is a beat in wall-clock seconds, and a worker silent for
longer than the coordinator's ``HEARTBEAT_TIMEOUT`` fails over.  The
in-process executors need no detector — they lose a node at the virtual
instant its crash fires.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.errors import ConfigurationError


class FailureDetector:
    """Tracks per-node heartbeats against a staleness timeout."""

    def __init__(self, *, timeout: float) -> None:
        if timeout <= 0:
            raise ConfigurationError(
                f"heartbeat timeout must be positive: {timeout}")
        self.timeout = timeout
        self.last_beat: Dict[str, float] = {}
        #: Total suspicions ever raised (a node can be suspected once,
        #: recover, and be suspected again).
        self.suspicions = 0
        self._suspected: set = set()

    def beat(self, node: str, now: float) -> None:
        """Record a heartbeat from ``node`` at clock value ``now``."""
        self.last_beat[node] = now
        self._suspected.discard(node)

    def forget(self, node: str) -> None:
        """Stop watching ``node`` (it left the system for good)."""
        self.last_beat.pop(node, None)
        self._suspected.discard(node)

    def suspects(self, now: float) -> List[str]:
        """Nodes whose last beat is older than the timeout, sorted."""
        found = []
        for node in sorted(self.last_beat):
            if now - self.last_beat[node] > self.timeout:
                if node not in self._suspected:
                    self._suspected.add(node)
                    self.suspicions += 1
                found.append(node)
        return found

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FailureDetector timeout={self.timeout:g} "
                f"watching={len(self.last_beat)}>")
