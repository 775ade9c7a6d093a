"""Deterministic fault plans: seeded chaos that replays bit for bit.

The paper's premise is *geographic* distribution — Pia nodes joined over
the Internet — where links drop, delay, duplicate and reorder traffic and
whole nodes disappear.  A :class:`FaultPlan` describes such an environment
as data: per-link fault rates, link partition windows and scheduled node
crashes.  Every decision is a **pure function** of the plan's seed and the
message's coordinates (link, per-link ordinal, attempt number), never of
wall-clock time or shared RNG state, so the same plan produces the same
faults on every run — chaos experiments are reproducible experiments.

Decisions are plain strings (``"deliver"``, ``"drop"`` …) rather than an
enum so the transports can consume them without importing this module.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.errors import ConfigurationError

#: The possible outcomes of one send attempt.
DELIVER = "deliver"
DROP = "drop"
#: A drop caused by an active partition window (counted separately).
PARTITION = "partition"
DUPLICATE = "duplicate"
DELAY = "delay"
REORDER = "reorder"
#: Sent to (or from) a crashed node: swallowed, counted, never retried.
LOST = "lost"

#: Message kinds the plan perturbs by default: asynchronous channel
#: traffic.  Synchronous calls (safe time, hardware) are excluded — their
#: request counts depend on executor interleaving under the threaded
#: deployment, and faulting them would make fault counters nondeterministic.
DEFAULT_KINDS = ("signal", "mark", "restore")


def _normalise_kind(kind) -> str:
    return getattr(kind, "value", kind)


@dataclass(frozen=True)
class LinkFaults:
    """Per-attempt fault rates for one directed (or symmetric) link.

    Rates are probabilities over the plan's hash stream; their sum must
    not exceed 1.  ``delay_ticks`` is measured in destination *poll*
    calls — keep it small (a few ticks) so the cooperative executor's
    idle-round bound never mistakes a held message for a deadlock.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_ticks: int = 2
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay", "reorder"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate {name}={rate} outside [0, 1]")
        if self.drop + self.duplicate + self.delay + self.reorder > 1.0:
            raise ConfigurationError("fault rates sum to more than 1")
        if self.delay_ticks < 1:
            raise ConfigurationError(
                f"delay_ticks must be >= 1: {self.delay_ticks}")


#: A link with no injected faults (the default).
NO_FAULTS = LinkFaults()


@dataclass(frozen=True)
class Partition:
    """A window of virtual time during which a link carries nothing.

    Active for messages stamped ``start <= message.time < stop``, in both
    directions.  Virtual time (not wall time) keeps the window
    deterministic across deployments.
    """

    a: str
    b: str
    start: float = 0.0
    stop: float = float("inf")

    def covers(self, src: str, dst: str, time: float) -> bool:
        return {src, dst} == {self.a, self.b} and self.start <= time < self.stop


@dataclass(frozen=True)
class NodeCrash:
    """A scheduled node failure: the node dies when global virtual time
    first reaches ``at_time``.  Each crash fires at most once per run —
    a recovery that rewinds time does not re-trigger it."""

    node: str
    at_time: float


class FaultPlan:
    """A seeded, replayable description of everything that goes wrong.

    ``links`` maps ``(src, dst)`` pairs to :class:`LinkFaults`; lookups
    fall back to the reversed pair and then to ``default``, so a single
    entry describes a symmetric link.
    """

    def __init__(self, seed: int = 0, *,
                 default: LinkFaults = NO_FAULTS,
                 links: Optional[Dict[Tuple[str, str], LinkFaults]] = None,
                 partitions: Iterable[Partition] = (),
                 crashes: Iterable[NodeCrash] = (),
                 kinds: Iterable = DEFAULT_KINDS) -> None:
        if seed < 0:
            raise ConfigurationError(f"fault plan seed must be >= 0: {seed}")
        self.seed = seed
        self.default = default
        self.links = dict(links or {})
        self.partitions = tuple(partitions)
        self.crashes = tuple(crashes)
        self.kinds = frozenset(_normalise_kind(k) for k in kinds)
        self._key = seed.to_bytes(8, "little")

    # ------------------------------------------------------------------
    def applies(self, message) -> bool:
        """Does this plan perturb messages of this kind?"""
        return _normalise_kind(message.kind) in self.kinds

    def faults_for(self, src: str, dst: str) -> LinkFaults:
        found = self.links.get((src, dst))
        if found is None:
            found = self.links.get((dst, src), self.default)
        return found

    def partitioned(self, src: str, dst: str, time: float) -> bool:
        return any(p.covers(src, dst, time) for p in self.partitions)

    def max_delay_ticks(self) -> int:
        """The worst-case poll-ticks any message can be held for (the
        executors widen their settle budgets by this)."""
        ticks = self.default.delay_ticks if self.default.delay else 0
        for faults in self.links.values():
            if faults.delay:
                ticks = max(ticks, faults.delay_ticks)
        return ticks

    def scheduled_crashes(self, nodes) -> List[NodeCrash]:
        """The crashes in firing order.  One naming a node outside
        ``nodes`` is refused here, before anything runs — left to the
        moment it fires, a typo past the end of the run goes unnoticed."""
        for crash in self.crashes:
            if crash.node not in nodes:
                raise ConfigurationError(
                    f"scheduled crash for unknown node {crash.node!r}")
        return sorted(self.crashes, key=lambda c: (c.at_time, c.node))

    # ------------------------------------------------------------------
    def for_node(self, node: str) -> "FaultPlan":
        """The plan as seen from one node's process.

        Message-fault decisions are pure functions of the *base* seed and
        the message's coordinates, so every process must keep that seed —
        deriving a different per-node seed would give each process a
        different hash stream and break same-seed equivalence with the
        single-process run.  Link rates, partitions and perturbed kinds
        are global facts and carry over unchanged; only scheduled crashes
        are filtered to the ones this node itself suffers (the coordinator
        owns crash *detection* for every node).
        """
        return FaultPlan(self.seed, default=self.default, links=self.links,
                         partitions=self.partitions,
                         crashes=[c for c in self.crashes if c.node == node],
                         kinds=self.kinds)

    # ------------------------------------------------------------------
    def uniform(self, *parts) -> float:
        """A deterministic uniform draw in [0, 1) keyed by ``parts``."""
        blob = "|".join(str(p) for p in parts).encode()
        digest = hashlib.blake2b(blob, key=self._key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def decide(self, src: str, dst: str, seq: int, attempt: int,
               time: float) -> Tuple[str, int]:
        """The fate of attempt ``attempt`` of the ``seq``-th message on
        the link; returns ``(action, delay_ticks)``."""
        if self.partitioned(src, dst, time):
            return PARTITION, 0
        faults = self.faults_for(src, dst)
        if faults is NO_FAULTS:
            return DELIVER, 0
        u = self.uniform("msg", src, dst, seq, attempt)
        edge = faults.drop
        if u < edge:
            return DROP, 0
        edge += faults.duplicate
        if u < edge:
            return DUPLICATE, 0
        edge += faults.delay
        if u < edge:
            return DELAY, faults.delay_ticks
        edge += faults.reorder
        if u < edge:
            return REORDER, 0
        return DELIVER, 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultPlan seed={self.seed} links={len(self.links)} "
                f"partitions={len(self.partitions)} "
                f"crashes={len(self.crashes)}>")
