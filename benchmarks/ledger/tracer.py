"""Span recorder for the traced rep: wraps the layers' public functions
from outside ``src/`` and attributes wall-clock to them.

A span is one call of a wrapped function: name, start, end, and the span
that was open on the same thread when it started (its parent).  A
layer's *self time* is its spans' duration minus the part their child
spans cover, so self times of one thread add up to that thread's root
spans and nothing is counted twice.

Spans aggregate in memory per thread (a dict update per call, no
allocation); raw spans are kept only when ``keep_spans`` is set, for
``--trace-out`` and for the tests.  The wrapper's own bookkeeping that
runs outside its two clock reads lands in the *parent's* self time —
``ledger.trace.overhead_ratio`` bounds how far that can skew a share.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Tuple

#: One wrap target: (span name, owning class or module, attribute).
Target = Tuple[str, object, str]

#: The span name of the executors' ``run()``: the root of a traced rep.
EXECUTOR_RUN = "distributed.executor.run"


class _ThreadState:
    """One thread's open-span stack and aggregates."""

    __slots__ = ("ident", "stack", "stats", "spans")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        #: Open spans, innermost last: [name, start, child_s, span_id].
        self.stack: List[list] = []
        #: name -> [calls, useful, total_s, self_s].
        self.stats: Dict[str, list] = {}
        #: (run_id, thread, span_id, parent_id, name, start, end).
        self.spans: List[tuple] = []


class Tracer:
    """Wraps functions with span recording; removes the wrappers again."""

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter,
                 keep_spans: bool = False) -> None:
        self.clock = clock
        self.keep_spans = keep_spans
        #: Stamped on every raw span; the driver bumps it once per rep.
        self.run_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._span_ids = itertools.count(1)
        #: (owner, attribute, original) for every installed wrapper.
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = _ThreadState(threading.get_ident())
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` recording one span named ``name`` per call."""
        local = self._local
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = tracer._state()
            stack = state.stack
            frame = [name, 0.0, 0.0, 0]
            if tracer.keep_spans:
                frame[3] = next(tracer._span_ids)
            stack.append(frame)
            result = None
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                row = state.stats.get(name)
                if row is None:
                    row = state.stats[name] = [0, 0, 0.0, 0.0]
                row[0] += 1
                if result:
                    # "Useful" calls: a pump that moved a message, a poll
                    # that drained one, a flush that shipped one.
                    row[1] += 1
                row[2] += duration
                row[3] += duration - frame[2]
                if frame[3]:
                    state.spans.append((
                        tracer.run_id, state.ident, frame[3],
                        stack[-1][3] if stack else 0,
                        name, frame[1], end))

        return traced

    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        """Replace each ``owner.attr`` by its recording wrapper."""
        for name, owner, attr in targets:
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def remove(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.remove()

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, dict]:
        """Per-name aggregates summed over every thread that ran a span."""
        merged: Dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, row in state.stats.items():
                into = merged.setdefault(name, [0, 0, 0.0, 0.0])
                for index, value in enumerate(row):
                    into[index] += value
        return {name: {"calls": row[0], "useful": row[1],
                       "total_s": row[2], "self_s": row[3]}
                for name, row in sorted(merged.items())}

    def spans(self) -> List[tuple]:
        """Raw spans of every thread (``keep_spans`` only), by start."""
        with self._lock:
            states = list(self._states)
        return sorted((span for state in states for span in state.spans),
                      key=lambda span: span[5])

    def dump_jsonl(self, path: str) -> int:
        """Write the raw spans, one JSON object per line."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for run_id, thread, span_id, parent, name, start, end in spans:
                handle.write(json.dumps({
                    "run": run_id, "thread": thread, "span": span_id,
                    "parent": parent, "name": name,
                    "start": start, "end": end}) + "\n")
        return len(spans)


def layer_targets() -> List[Target]:
    """The public functions at this repo's layer boundaries.

    Imported lazily so that importing this module costs nothing.  The
    codec names are the ones *bound in* ``repro.transport.inmemory``:
    patching the codec module itself would miss them (``from .codec
    import encode`` copied the references at import time).
    """
    from repro.core.component import Component
    from repro.core.subsystem import Subsystem
    from repro.distributed.channel import ChannelEndpoint
    from repro.distributed.conservative import (SafeTimeClient,
                                                SafeTimeService)
    from repro.distributed.executor import CoSimulation
    from repro.distributed.multiprocess import MultiprocessCoSimulation
    from repro.distributed.node import PiaNode
    from repro.distributed.threaded import (LockedSafeTimeService,
                                            ThreadedCoSimulation)
    from repro.transport import inmemory
    from repro.transport.inmemory import InMemoryTransport

    targets: List[Target] = [
        (EXECUTOR_RUN, CoSimulation, "run"),
        (EXECUTOR_RUN, ThreadedCoSimulation, "run"),
        (EXECUTOR_RUN, MultiprocessCoSimulation, "run"),
        ("core.subsystem.run", Subsystem, "run"),
        ("distributed.node.pump", PiaNode, "pump"),
        ("distributed.channel.forward", ChannelEndpoint, "forward"),
        ("distributed.channel.receive_signal", ChannelEndpoint,
         "receive_signal"),
        ("distributed.conservative.refresh", SafeTimeClient, "refresh"),
        ("distributed.conservative.serve", SafeTimeService, "serve"),
        ("distributed.conservative.serve", LockedSafeTimeService, "serve"),
    ]
    for fn in ("send", "poll", "call", "flush_batches", "push_grants"):
        targets.append((f"transport.inmemory.{fn}", InMemoryTransport, fn))
    for fn in ("encode", "decode", "encode_batch"):
        targets.append((f"transport.codec.{fn}", inmemory, fn))
    # Every class that defines its own deliver(): the scheduler calls
    # ``owner.deliver(event)``, which resolves on the concrete class.
    pending = [Component]
    while pending:
        cls = pending.pop()
        if "deliver" in vars(cls):
            targets.append(("core.component.deliver", cls, "deliver"))
        pending.extend(cls.__subclasses__())
    return targets
