"""Per-link traffic accounting.

Table 1 of the paper reports wall-clock simulation times whose remote
configurations are dominated by network cost.  Because this reproduction
runs on one machine, the network component of wall time is *modelled*: each
message crossing a link is charged ``latency + size/bandwidth`` against
that link, and experiments report measured CPU time plus the accumulated
link time (see DESIGN.md, substitutions).
"""

from __future__ import annotations

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

    def record(self, size: int) -> float:
        d = self.model.delay(size, seq=self.messages)
        self.messages += 1
        self.frames += 1
        self.bytes += size
        self.delay += d
        return d

    def record_frame(self, size: int, messages: int) -> float:
        """Charge one batch frame carrying ``messages`` logical messages.

        The latency model is consulted once — per frame, not per message —
        which is precisely the saving batching buys."""
        d = self.model.delay(size, seq=self.frames)
        self.messages += messages
        self.frames += 1
        self.bytes += size
        self.delay += d
        return d


class NetworkAccounting:
    """Traffic accounting across every directed link of a Pia system."""

    def __init__(self, default_model: LatencyModel = SAME_HOST) -> None:
        self.default_model = default_model
        self._models: Dict[Tuple[str, str], LatencyModel] = {}
        self.links: Dict[Tuple[str, str], LinkStats] = {}
        #: Telemetry sink; every recorded message also feeds the global
        #: and per-link counters of the observability registry.
        self.telemetry = NULL_TELEMETRY
        #: Optional :class:`~repro.observability.health.LinkHealthMonitor`.
        #: record()/record_frame() are the universal send boundary — every
        #: transport and the batched path funnel through them — so one
        #: hook here feeds the per-link estimators in every mode.  Pay
        #: for use: ``None`` costs one attribute read per frame.
        self.health = None
        #: Bound registry metrics (see :meth:`_count`): per directed link
        #: the six counters a frame increments, plus the batch histogram,
        #: valid for one registry.
        self._bound: Dict[Tuple[str, str], tuple] = {}
        self._batch_size = None
        self._bound_to = None

    def set_model(self, src: str, dst: str, model: LatencyModel,
                  *, both_ways: bool = True) -> None:
        self._models[(src, dst)] = model
        if both_ways:
            self._models[(dst, src)] = model

    def model_for(self, src: str, dst: str) -> LatencyModel:
        return self._models.get((src, dst), self.default_model)

    def _stats(self, src: str, dst: str) -> LinkStats:
        key = (src, dst)
        stats = self.links.get(key)
        if stats is None:
            stats = self.links[key] = LinkStats(self.model_for(src, dst))
        return stats

    def _count(self, src: str, dst: str, messages: int, size: int) -> None:
        """Feed one frame to the registry: the four global counters, the
        link's two, and — for a frame that carries data messages — the
        coalescing histogram.  The metric objects are looked up by name
        once per link and held; a registry swapped by attaching another
        telemetry is noticed here, so counting starts from zero exactly
        as a by-name increment would."""
        registry = self.telemetry.registry
        if registry is not self._bound_to:
            self._bound.clear()
            self._batch_size = None
            self._bound_to = registry
        key = (src, dst)
        bound = self._bound.get(key)
        if bound is None:
            counter = registry.counter
            bound = self._bound[key] = (
                counter("transport.messages"),
                counter("transport.bytes"),
                counter("transport.frames_sent"),
                counter("transport.bytes_on_wire"),
                counter(f"link.{src}->{dst}.messages"),
                counter(f"link.{src}->{dst}.bytes"))
        all_messages, all_bytes, frames, on_wire, link_messages, link_bytes \
            = bound
        all_messages.value += messages
        all_bytes.value += size
        frames.value += 1
        on_wire.value += size
        link_messages.value += messages
        link_bytes.value += size

    def record(self, src: str, dst: str, size: int) -> float:
        """Charge one message (its own wire frame); returns its delay."""
        stats = self._stats(src, dst)
        if self.telemetry.enabled:
            self._count(src, dst, 1, size)
        delay = stats.record(size)
        health = self.health
        if health is not None:
            health.on_send(src, dst, size, 1, delay)
        return delay

    def record_frame(self, src: str, dst: str, size: int,
                     messages: int) -> float:
        """Charge one batch frame of ``messages`` coalesced messages."""
        stats = self._stats(src, dst)
        if self.telemetry.enabled:
            self._count(src, dst, messages, size)
            if messages:
                # Grant-only push frames carry no data messages and would
                # only dilute the coalescing histogram.
                histogram = self._batch_size
                if histogram is None:
                    histogram = self._batch_size = \
                        self.telemetry.registry.histogram(
                            "transport.batch_size")
                histogram.observe(messages)
        delay = stats.record_frame(size, messages)
        health = self.health
        if health is not None:
            health.on_send(src, dst, size, messages, delay)
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
