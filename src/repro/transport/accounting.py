"""Per-link traffic accounting.

Table 1 of the paper reports wall-clock simulation times whose remote
configurations are dominated by network cost.  Because this reproduction
runs on one machine, the network component of wall time is *modelled*: each
message crossing a link is charged ``latency + size/bandwidth`` against
that link, and experiments report measured CPU time plus the accumulated
link time (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..observability import NULL_TELEMETRY
from .latency import SAME_HOST, LatencyModel


@dataclass
class LinkStats:
    """Accumulated traffic over one directed link."""

    model: LatencyModel
    messages: int = 0
    bytes: int = 0
    #: Wire frames carrying those messages.  Without batching every
    #: message is its own frame; a batch frame carries many.
    frames: int = 0
    #: Total modelled wall-clock time spent on the wire, assuming the
    #: communication is serialised (conservative, like the paper's setup
    #: where the simulator blocks on channel traffic).
    delay: float = 0.0
    #: The registry counters a frame here increments, and their registry.
    counters: tuple = field(default=(), repr=False, compare=False)
    registry: object = field(default=None, repr=False, compare=False)


class NetworkAccounting:
    """Traffic accounting across every directed link of a Pia system."""

    def __init__(self, default_model: LatencyModel = SAME_HOST) -> None:
        self.default_model = default_model
        self._models: Dict[Tuple[str, str], LatencyModel] = {}
        self.links: Dict[Tuple[str, str], LinkStats] = {}
        #: Telemetry sink; every charged frame also feeds the global and
        #: per-link counters of the observability registry.
        self.telemetry = NULL_TELEMETRY
        #: Optional :class:`~repro.observability.health.LinkHealthMonitor`.
        #: :meth:`charge` is the universal send boundary — every
        #: transport and the batched path funnel through it — so one
        #: hook here feeds the per-link estimators in every mode.  Pay
        #: for use: ``None`` costs one attribute read per frame.
        self.health = None
        #: Really sleep a frame's modelled delay times this (0 = off).
        self.pace = 0.0
        #: ``(registry, its batch-size histogram)``, made on first use.
        self._batch_size = None

    def set_model(self, src: str, dst: str, model: LatencyModel,
                  *, both_ways: bool = True) -> None:
        self._models[(src, dst)] = model
        if both_ways:
            self._models[(dst, src)] = model

    def model_for(self, src: str, dst: str) -> LatencyModel:
        return self._models.get((src, dst), self.default_model)

    def charge(self, src: str, dst: str, size: int,
               batch: Optional[int] = None) -> float:
        """Charge one wire frame of ``size`` bytes to ``src``->``dst``;
        returns its modelled delay.  ``batch`` is None for a lone message
        (a frame of one, jitter ordinal: the link's message count), else
        the data messages a batch frame coalesces (the model is consulted
        once per frame, ordinal: the link's frame count; a grant-only
        frame stays out of the batch histogram).  Lit, the frame feeds
        the four global counters and the link's two, held per link and
        re-resolved when another telemetry's registry is attached."""
        key = (src, dst)
        stats = self.links.get(key)
        if stats is None:
            stats = self.links[key] = LinkStats(self.model_for(src, dst))
        messages = 1 if batch is None else batch
        delay = stats.model.delay(
            size, seq=stats.messages if batch is None else stats.frames)
        stats.messages += messages
        stats.frames += 1
        stats.bytes += size
        stats.delay += delay
        telemetry = self.telemetry
        if telemetry.enabled:
            registry = telemetry.registry
            if stats.registry is not registry:
                counter = registry.counter
                stats.registry = registry
                stats.counters = (
                    counter("transport.messages"),
                    counter("transport.bytes"),
                    counter("transport.frames_sent"),
                    counter("transport.bytes_on_wire"),
                    counter(f"link.{src}->{dst}.messages"),
                    counter(f"link.{src}->{dst}.bytes"))
            all_messages, all_bytes, frames, on_wire, link_messages, \
                link_bytes = stats.counters
            all_messages.value += messages
            all_bytes.value += size
            frames.value += 1
            on_wire.value += size
            link_messages.value += messages
            link_bytes.value += size
            if batch:
                held = self._batch_size
                if held is None or held[0] is not registry:
                    held = self._batch_size = (
                        registry, registry.histogram("transport.batch_size"))
                held[1].observe(batch)
        health = self.health
        if health is not None:
            health.on_send(src, dst, size, messages, delay)
        if self.pace > 0:
            _time.sleep(delay * self.pace)
        return delay

    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.links.values())

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.links.values())

    @property
    def total_frames(self) -> int:
        return sum(s.frames for s in self.links.values())

    @property
    def total_delay(self) -> float:
        return sum(s.delay for s in self.links.values())

    def report(self) -> list:
        """Rows of (src, dst, model, messages, bytes, delay, frames)."""
        return [
            (src, dst, stats.model.name, stats.messages, stats.bytes,
             stats.delay, stats.frames)
            for (src, dst), stats in sorted(self.links.items())
        ]
