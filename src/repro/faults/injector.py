"""The fault injection plane the send pipeline runs for every carrier.

A :class:`FaultInjector` sits at the send/poll boundary of
:class:`~repro.transport.inmemory.InMemoryTransport` and
:class:`~repro.transport.tcp.TcpTransport`:

* at **send**, it rolls the plan's decision for the message's per-link
  ordinal; injected drops are retried against the
  :class:`~repro.faults.RetryPolicy` attempt budget (the resilience layer
  the chaos is there to exercise) until delivery or a typed
  :class:`~repro.core.errors.LinkDown`;
* **delayed** and **reordered** messages are held here and released at
  the destination's poll boundary;
* **duplicated** messages are delivered twice and deduplicated at poll by
  message id — exactly-once delivery on top of at-least-once chaos;
* sends touching a **crashed** node are swallowed and counted (the
  executors' failure detector and recovery deal with the node itself).

The injector keeps its own exact counters under a lock — unlike the
advisory telemetry counters, these must be bit-identical across two runs
of the same seed — and mirrors every event into telemetry for the
:class:`~repro.observability.RunReport`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import LinkDown
from ..observability import NULL_TELEMETRY, TraceKind
from ..observability.spans import span_of
from .plan import (
    DELAY,
    DELIVER,
    DROP,
    DUPLICATE,
    FaultPlan,
    LOST,
    PARTITION,
    REORDER,
)
from .retry import RetryPolicy


class FaultInjector:
    """Deterministic fault decisions plus the queues they require."""

    def __init__(self, plan: FaultPlan, *,
                 retry_policy: Optional[RetryPolicy] = None,
                 telemetry=NULL_TELEMETRY) -> None:
        self.plan = plan
        self.retry_policy = retry_policy or RetryPolicy()
        #: Telemetry mirror (attached by the owning executor/transport).
        self.telemetry = telemetry
        self._lock = threading.Lock()
        #: Exact event counters (deterministic; see module docstring).
        self.counts: Dict[str, int] = {}
        self._seq: Dict[Tuple[str, str], int] = {}
        #: dst -> [(release_tick, item)] delayed deliveries.
        self._held: Dict[str, List[Tuple[int, Any]]] = {}
        #: dst -> poll tick counter.
        self._ticks: Dict[str, int] = {}
        #: dst -> src -> item awaiting a swap with the link's next send.
        #: By destination first, like ``_held``, and like it never keeps
        #: an empty entry: a key in either is a delivery ``dst``'s polls
        #: are counting down to (:meth:`holds`).
        self._swaps: Dict[str, Dict[str, Any]] = {}
        #: dst -> {(src, msg_id): extra copies in flight} (dedup at poll).
        #: Keyed by sender because each process numbers its messages
        #: independently — two nodes can emit the same msg_id — and kept
        #: as a multiset because distinct links may duplicate colliding
        #: ids concurrently.
        self._dup_ids: Dict[str, Dict[Tuple[str, int], int]] = {}
        self._down: set = set()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        # Callers hold self._lock.
        self.counts[name] = self.counts.get(name, 0) + n
        self.telemetry.count(name, n)

    def summary(self) -> Dict[str, int]:
        """The exact fault/retry counters, sorted by name."""
        with self._lock:
            return dict(sorted(self.counts.items()))

    def backoff_uniform(self, src: str, dst: str, retry_index: int) -> float:
        """Plan-seeded jitter draw for a real-error retry sleep."""
        return self.plan.uniform("backoff", src, dst, retry_index)

    # ------------------------------------------------------------------
    # crashed nodes
    # ------------------------------------------------------------------
    def mark_down(self, node: str) -> None:
        with self._lock:
            self._down.add(node)

    def mark_up(self, node: str) -> None:
        with self._lock:
            self._down.discard(node)

    # ------------------------------------------------------------------
    # send boundary
    # ------------------------------------------------------------------
    def on_send(self, message) -> Tuple[str, int]:
        """Decide the fate of ``message``; returns ``(action, ticks)``.

        Injected drops consume retry attempts internally, so the caller
        only ever sees a terminal action — or :class:`LinkDown` once the
        attempt budget is spent.
        """
        src, dst = message.src, message.dst
        with self._lock:
            if src in self._down or dst in self._down:
                self._count("fault.messages_lost")
                if self.telemetry.enabled:
                    self.telemetry.trace(
                        TraceKind.FAULT_INJECT, time=message.time,
                        subject=f"{src}->{dst}", action=LOST,
                        message_kind=message.kind.value)
                return LOST, 0
            if not self.plan.applies(message):
                return DELIVER, 0
            key = (src, dst)
            seq = self._seq.get(key, 0) + 1
            self._seq[key] = seq
            attempt = 0
            while True:
                action, ticks = self.plan.decide(src, dst, seq, attempt,
                                                 message.time)
                if action not in (DROP, PARTITION):
                    break
                self._count("fault.partition_drops" if action is PARTITION
                            else "fault.drops")
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    self._count("retry.giveups")
                    raise LinkDown(
                        f"link {src}->{dst}: message #{seq} dropped on all "
                        f"{attempt} attempts", src=src, dst=dst,
                        attempts=attempt)
                self._count("retry.attempts")
                if self.telemetry.enabled:
                    self.telemetry.trace(
                        TraceKind.RETRY, time=message.time,
                        subject=f"{src}->{dst}", attempt=attempt, seq=seq)
            if action is not DELIVER:
                self._count(f"fault.{action}s")
                if self.telemetry.enabled:
                    self.telemetry.trace(
                        TraceKind.FAULT_INJECT, time=message.time,
                        subject=f"{src}->{dst}", action=action, seq=seq)
            return action, ticks

    def check_call(self, message) -> None:
        """Gate a synchronous call: calls cannot reach a crashed node."""
        with self._lock:
            if message.src in self._down or message.dst in self._down:
                self._count("fault.calls_failed")
                raise LinkDown(
                    f"call {message.src}->{message.dst}: node down",
                    src=message.src, dst=message.dst)

    # ------------------------------------------------------------------
    # held traffic (delay / reorder), released at the poll boundary
    # ------------------------------------------------------------------
    def hold(self, dst: str, item: Any, ticks: int) -> None:
        """Park a delayed delivery for ``ticks`` polls of ``dst``."""
        with self._lock:
            due = self._ticks.get(dst, 0) + ticks
            self._held.setdefault(dst, []).append((due, item))

    def hold_swap(self, src: str, dst: str, item: Any) -> None:
        """Park a delivery until the link's next send (a true reorder).

        At most one item is parked per link; a second reorder decision
        before the first is released just queues behind it as a delay.
        """
        with self._lock:
            if src in self._swaps.get(dst, ()):
                due = self._ticks.get(dst, 0) + 1
                self._held.setdefault(dst, []).append((due, item))
            else:
                self._swaps.setdefault(dst, {})[src] = item

    def take_swaps(self, src: str, dst: str) -> List[Any]:
        """Items parked on this link, now due behind the current send."""
        with self._lock:
            parked = self._swaps.get(dst)
            if not parked or src not in parked:
                return []
            item = parked.pop(src)
            if not parked:
                del self._swaps[dst]
            return [item]

    def release_due(self, dst: str) -> List[Any]:
        """Advance ``dst``'s poll tick; return deliveries now due.

        Swap-parked items whose follow-up send never came are flushed
        here too, so no message is held beyond its destination's next
        poll plus its delay budget.
        """
        with self._lock:
            tick = self._ticks.get(dst, 0) + 1
            self._ticks[dst] = tick
            held = self._held.get(dst)
            due: List[Any] = []
            if held:
                keep = []
                for release_tick, item in held:
                    if release_tick <= tick:
                        due.append(item)
                    else:
                        keep.append((release_tick, item))
                if keep:
                    self._held[dst] = keep
                else:
                    del self._held[dst]
            due.extend(self._swaps.pop(dst, {}).values())
            return due

    # ------------------------------------------------------------------
    # duplicate suppression (exactly-once on top of at-least-once)
    # ------------------------------------------------------------------
    def expect_duplicate(self, dst: str, msg_id: int, *, src: str) -> None:
        key = (src, msg_id)
        with self._lock:
            ids = self._dup_ids.setdefault(dst, {})
            ids[key] = ids.get(key, 0) + 1

    def suppress_duplicate(self, dst: str, message) -> bool:
        """True if this drained copy is the redundant one: drop it."""
        ids = self._dup_ids.get(dst)
        key = (message.src, message.msg_id)
        if not ids or key not in ids:
            return False
        with self._lock:
            remaining = ids.get(key, 0)
            if not remaining:
                return False
            if remaining == 1:
                del ids[key]
            else:
                ids[key] = remaining - 1
            if not ids:
                self._dup_ids.pop(dst, None)
            self._count("fault.duplicates_suppressed")
        if self.telemetry.enabled:
            # The redundant copy carries the original send's trace
            # context; recording it here is what lets the causal layer
            # prove every duplicate shared the send's span.
            span = span_of(message)
            extra = {} if span is None else {"span": span}
            self.telemetry.trace(
                TraceKind.FAULT_INJECT, time=message.time,
                subject=f"{message.src}->{message.dst}",
                action="duplicate-suppressed",
                message_kind=message.kind.value, **extra)
        return True

    # ------------------------------------------------------------------
    # transport integration
    # ------------------------------------------------------------------
    def holds(self, dst: str) -> bool:
        """Is a delivery parked for ``dst``?  Then ``dst``'s polls are
        its release clock and the node must keep being polled.  Two key
        lookups, lock-free: a delivery parked right after is the next
        look's."""
        return dst in self._held or dst in self._swaps

    def held_pending(self, name: Optional[str] = None) -> int:
        """Deliveries parked here (counted into ``transport.pending``)."""
        with self._lock:
            if name is not None:
                return (len(self._held.get(name, ()))
                        + len(self._swaps.get(name, ())))
            return sum(len(v) for parked in (self._held, self._swaps)
                       for v in parked.values())

    def flush(self) -> int:
        """Drop everything parked (global rollback support)."""
        with self._lock:
            dropped = sum(len(v) for parked in (self._held, self._swaps)
                          for v in parked.values())
            self._held.clear()
            self._swaps.clear()
            self._dup_ids.clear()
            return dropped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultInjector plan={self.plan!r} "
                f"held={self.held_pending()}>")
