"""Per-peer send queues for frame coalescing (the batched fast path).

With batching enabled, a transport does not put every message on the wire
as its own frame.  Messages bound for the same destination are queued per
directed link and shipped at the next *flush point* — the destination's
poll, a synchronous call crossing the link, or an executor round boundary
— as one :class:`~repro.transport.message.BatchFrame`: one pickle, one
``sendall``, one latency charge.  The paper's premise (section 2.2.2.1)
is that a geographically distributed backplane lives or dies by how few
synchronisation messages cross the wire; coalescing is the classic PDES
lever for exactly that.

Fault injection stays per *logical message*: the injector's decision is
rolled at enqueue time, in original send order, so per-link ordinals —
and therefore every seeded fault decision — are identical with batching
on or off.

The batcher itself is transport-agnostic bookkeeping: queues and
counters.  Delivery — frame assembly included — is the owning
transport's business.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from .message import Message


class SendBatcher:
    """Per-(src, dst) FIFO queues of messages awaiting a batch flush.

    Stored by destination first — ``dst -> src -> queue`` — because the
    destination is what every flush point asks about: its poll ships the
    queues bound for it, and "is anything bound for this node" is one of
    the things that make a node worth visiting
    (:meth:`~repro.transport.pipeline.Transport.ready`).  No empty queue
    or empty destination entry is ever kept, so a key *is* queued work,
    read lock-free (a queue that appears right after is the next look's).
    """

    def __init__(self) -> None:
        self.queues: Dict[str, Dict[str, List[Message]]] = {}
        self._lock = threading.Lock()

    def enqueue(self, src: str, dst: str, message: Message) -> None:
        with self._lock:
            self.queues.setdefault(dst, {}).setdefault(src, []) \
                .append(message)

    def extend(self, src: str, dst: str, messages) -> None:
        for message in messages:
            self.enqueue(src, dst, message)

    # ------------------------------------------------------------------
    def pending(self, name: Optional[str] = None) -> int:
        """Queued messages destined for ``name`` (or for anyone)."""
        with self._lock:
            groups = self.queues.values() if name is None \
                else (self.queues.get(name, {}),)
            return sum(len(queue) for by_src in groups
                       for queue in by_src.values())

    def take(self, *, src: Optional[str] = None, dst: Optional[str] = None
             ) -> List[Tuple[Tuple[str, str], List[Message]]]:
        """Remove and return matching queues, sorted by link key
        (deterministic flush order)."""
        with self._lock:
            queues = self.queues
            keys = [(s, d) for d in (queues if dst is None else (dst,))
                    for s in queues.get(d, ()) if src is None or s == src]
            keys.sort()
            return [(key, self._pop(*key)) for key in keys]

    def _pop(self, src: str, dst: str) -> List[Message]:
        # Callers hold self._lock.
        by_src = self.queues[dst]
        queue = by_src.pop(src)
        if not by_src:
            del self.queues[dst]
        return queue

    def clear(self, name: Optional[str] = None) -> int:
        """Drop queued messages (rollback / migration re-splice).

        With ``name``, drops only queues touching that node; returns the
        number of messages dropped."""
        with self._lock:
            queues = self.queues
            keys = [(s, d) for d, by_src in queues.items() for s in by_src
                    if name is None or name == s or name == d]
            return sum(len(self._pop(*key)) for key in keys)
