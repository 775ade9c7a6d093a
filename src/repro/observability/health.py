"""Per-directed-link health estimation at the transport boundary.

The ROADMAP's adaptive-channel item needs *online* per-link condition
measurements before any conservative ↔ optimistic switching can happen.
This module is that measurement substrate: a :class:`LinkHealthMonitor`
keeps incremental estimators per directed link — EWMA of the modelled
per-message latency, wall-clock message rate, bytes and frames on the
wire — plus per-destination inbound queue depth, and at report time the
stall-attribution pass is folded in as a per-link stall fraction.

Pay-for-use discipline: nothing runs unless a monitor is attached via
``transport.attach_health(monitor)``.  The estimators then update at the
two places every byte already crosses:

* the **send boundary** — :meth:`~repro.transport.accounting.
  NetworkAccounting.charge`, which the in-memory, TCP and shared-memory
  transports *and* the batched fast path all funnel through (one hook
  covers every mode);
* the **poll boundary** — each transport's ``poll()`` reports how many
  messages it drained for a node.

:func:`finalize_health` turns the raw rows into scored rows with an
*advisory* channel-mode recommendation (``"optimistic"`` when a link
keeps its receiver parked at horizons, ``"conservative"`` otherwise).
Nothing switches automatically yet; the rows surface in
:class:`~.report.RunReport` for operators and for the future adaptive
layer.  Scores mix modelled (deterministic) and wall-clock (measured)
inputs, so health rows live outside the report's deterministic
projection, like timers.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Tuple

#: Smoothing factor for every EWMA estimator.
EWMA_ALPHA = 0.2

#: Inbound-queue depth treated as "fully congested" by the score.
QUEUE_REF = 64

#: Stall fraction beyond which the advisory recommendation flips to the
#: optimistic channel mode (the receiver spends a quarter of its virtual
#: span parked on this link's traffic).
STALL_OPTIMISTIC_THRESHOLD = 0.25


class LinkHealth:
    """Incremental state for one directed link."""

    __slots__ = ("src", "dst", "messages", "frames", "bytes", "delay_total",
                 "ewma_delay", "ewma_gap", "_first_wall", "_last_wall")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        self.messages = 0
        self.frames = 0
        self.bytes = 0
        #: Accumulated modelled wire delay (deterministic).
        self.delay_total = 0.0
        #: EWMA of modelled per-message delay (deterministic).
        self.ewma_delay: Optional[float] = None
        #: EWMA of wall-clock gap between frames (measured).
        self.ewma_gap: Optional[float] = None
        self._first_wall: Optional[float] = None
        self._last_wall: Optional[float] = None


class _Inbound:
    """Inbound queue-depth state for one destination node."""

    __slots__ = ("polls", "drained", "peak", "ewma_depth")

    def __init__(self) -> None:
        self.polls = 0
        self.drained = 0
        self.peak = 0
        self.ewma_depth = 0.0


class LinkHealthMonitor:
    """Per-directed-link estimators fed by the transport boundary."""

    def __init__(self) -> None:
        self.links: Dict[Tuple[str, str], LinkHealth] = {}
        self.inbound: Dict[str, _Inbound] = {}

    # ------------------------------------------------------------------
    def _link(self, src: str, dst: str) -> LinkHealth:
        key = (src, dst)
        link = self.links.get(key)
        if link is None:
            link = self.links[key] = LinkHealth(src, dst)
        return link

    def on_send(self, src: str, dst: str, size: int, messages: int,
                delay: float, *, wall: Optional[float] = None) -> None:
        """Send-boundary hook: one wire frame of ``messages`` messages
        charged ``delay`` modelled seconds (``wall`` is injectable for
        deterministic tests)."""
        link = self._link(src, dst)
        link.frames += 1
        link.messages += messages
        link.bytes += size
        link.delay_total += delay
        per_message = delay / messages if messages else delay
        if link.ewma_delay is None:
            link.ewma_delay = per_message
        else:
            link.ewma_delay += EWMA_ALPHA * (per_message - link.ewma_delay)
        if wall is None:
            wall = _time.monotonic()
        if link._first_wall is None:
            link._first_wall = wall
        elif link._last_wall is not None:
            gap = wall - link._last_wall
            if link.ewma_gap is None:
                link.ewma_gap = gap
            else:
                link.ewma_gap += EWMA_ALPHA * (gap - link.ewma_gap)
        link._last_wall = wall

    def on_poll(self, dst: str, drained: int) -> None:
        """Poll-boundary hook: ``dst`` just drained ``drained`` messages."""
        row = self.inbound.get(dst)
        if row is None:
            row = self.inbound[dst] = _Inbound()
        row.polls += 1
        row.drained += drained
        if drained > row.peak:
            row.peak = drained
        row.ewma_depth += EWMA_ALPHA * (drained - row.ewma_depth)

    # ------------------------------------------------------------------
    def rows(self) -> List[dict]:
        """Raw measurement rows per directed link, sorted by link.

        ``rate`` is wall-clock messages/second over the link's observed
        span; ``queue_depth``/``queue_peak`` are the destination's
        inbound drain statistics.  Scores are *not* here — they need the
        stall-attribution pass, folded in by :func:`finalize_health`.
        """
        out = []
        for key in sorted(self.links):
            link = self.links[key]
            span = 0.0
            if link._first_wall is not None and link._last_wall is not None:
                span = link._last_wall - link._first_wall
            rate = (link.messages / span) if span > 0.0 else 0.0
            inbound = self.inbound.get(link.dst)
            out.append({
                "src": link.src,
                "dst": link.dst,
                "messages": link.messages,
                "frames": link.frames,
                "bytes": link.bytes,
                "delay": link.delay_total,
                "ewma_delay": (0.0 if link.ewma_delay is None
                               else link.ewma_delay),
                "rate": rate,
                "queue_depth": (inbound.ewma_depth if inbound else 0.0),
                "queue_peak": (inbound.peak if inbound else 0),
            })
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<LinkHealthMonitor links={len(self.links)}>"


# ----------------------------------------------------------------------
# report-time folding
# ----------------------------------------------------------------------
def merge_health_rows(rows: List[dict]) -> List[dict]:
    """Combine raw :meth:`LinkHealthMonitor.rows` of several monitors.

    Every worker only measures the traffic it *sent*, so a directed link
    normally appears in exactly one input row; on collision the additive
    fields sum, EWMAs take a message-weighted average, and queue peaks
    take the max.  Output is sorted by directed link.
    """
    merged: Dict[Tuple[str, str], dict] = {}
    for row in rows:
        key = (row["src"], row["dst"])
        have = merged.get(key)
        if have is None:
            merged[key] = dict(row)
            continue
        ours, theirs = have["messages"], row["messages"]
        total = ours + theirs
        for ewma in ("ewma_delay", "queue_depth"):
            if total:
                have[ewma] = (have.get(ewma, 0.0) * ours
                              + row.get(ewma, 0.0) * theirs) / total
        for field in ("messages", "frames", "bytes", "delay", "rate"):
            have[field] = have.get(field, 0) + row.get(field, 0)
        have["queue_peak"] = max(have.get("queue_peak", 0),
                                 row.get("queue_peak", 0))
    return [merged[key] for key in sorted(merged)]


def finalize_health(rows: List[dict], *,
                    stall_attribution: Optional[List[dict]] = None,
                    subsystems: Optional[List[dict]] = None) -> List[dict]:
    """Score raw monitor rows against the run's stall attribution.

    For each directed link ``src -> dst``, the stall fraction is the
    virtual time ``dst``'s subsystems spent parked waiting on ``src``
    (per the report's stall-attribution table) over ``dst``'s virtual
    span.  The health score starts at 1.0 and is docked for stalling
    (weight 0.6), inbound congestion (0.25) and latency dominance
    (0.15); the recommendation flips to ``"optimistic"`` once the stall
    fraction crosses :data:`STALL_OPTIMISTIC_THRESHOLD` — a parked
    receiver is exactly the case optimistic channels unblock.
    """
    stall_attribution = stall_attribution or []
    subsystems = subsystems or []
    waited: Dict[Tuple[str, str], float] = {}
    for row in stall_attribution:
        for target in {row.get("node"), row.get("subsystem")}:
            if target in (None, "-"):
                continue
            key = (row.get("peer_node", "-"), target)
            waited[key] = waited.get(key, 0.0) + row.get("waited", 0.0)
    spans: Dict[str, float] = {}
    for row in subsystems:
        for target in {row.get("node"), row.get("name")}:
            if target in (None, "-"):
                continue
            spans[target] = max(spans.get(target, 0.0),
                                row.get("time", 0.0))
    mean_delay = 0.0
    with_delay = [row for row in rows if row.get("ewma_delay", 0.0) > 0.0]
    if with_delay:
        mean_delay = (sum(row["ewma_delay"] for row in with_delay)
                      / len(with_delay))
    out = []
    for row in rows:
        span = spans.get(row["dst"], 0.0)
        stalled = waited.get((row["src"], row["dst"]), 0.0)
        stall_fraction = min(1.0, stalled / span) if span > 0.0 else 0.0
        queue_term = min(1.0, row.get("queue_depth", 0.0) / QUEUE_REF)
        latency_term = 0.0
        if mean_delay > 0.0:
            latency_term = min(1.0, row.get("ewma_delay", 0.0)
                               / (4.0 * mean_delay))
        score = max(0.0, 1.0 - 0.6 * stall_fraction - 0.25 * queue_term
                    - 0.15 * latency_term)
        advice = ("optimistic"
                  if stall_fraction >= STALL_OPTIMISTIC_THRESHOLD
                  else "conservative")
        out.append(dict(row, stall_fraction=round(stall_fraction, 6),
                        score=round(score, 4), recommendation=advice))
    return out


def attach_health(transport, telemetry=None) -> LinkHealthMonitor:
    """Attach a fresh monitor to ``transport`` (and optionally
    ``telemetry``).

    Convenience for the common wiring: the transport's accounting layer
    starts feeding the monitor, and the telemetry (when given) exposes it
    to :func:`~.report.run_report`.  Returns the monitor.
    """
    monitor = LinkHealthMonitor()
    transport.attach_health(monitor)
    if telemetry is not None:
        telemetry.health = monitor
    return monitor
