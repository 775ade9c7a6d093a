"""Thread-per-node execution over one process.

Every node runs its own pump/refresh/run loop on its own thread, safe-time
requests are served concurrently (guarded by a per-node lock, the moral
equivalent of the paper's suspend-all-but-one JVM scheduler trick), and
the transport may be real TCP sockets.  The nodes share one interpreter,
so this is concurrency, not the paper's deployment: the DAC'98
experiments ran two Pia nodes as separate JVM processes on two
workstations, which is the shape of the process-per-node executor
(:mod:`repro.distributed.multiprocess`).

Only conservative channels are supported here: optimistic recovery needs
the globally coordinated rollback of
:class:`~repro.distributed.executor.CoSimulation`.  Use the cooperative
executor for optimism and for anything that must be deterministic.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Optional

from ..core.errors import LinkDown, NodeFailure, SimulationError
from ..faults import FailureDetector, FaultPlan, RetryPolicy
from ..observability import Telemetry, TraceKind
from ..transport.latency import SAME_HOST, LatencyModel
from ..transport.message import Message
from .channel import ChannelMode
from .conservative import SafeTimeService
from .node import PiaNode
from .system import LiveSystem


class LockedSafeTimeService(SafeTimeService):
    """Safe-time server that serialises against the node's own loop.

    The transitive refresh performs blocking network calls, so it runs
    *outside* the node lock; holding it there would deadlock two nodes
    refreshing towards each other.  Shared with the multiprocess
    deployment, whose workers likewise serve safe-time calls from
    transport receiver threads concurrently with their own run loop.
    """

    def serve(self, message: Message) -> Message:
        self._refresh_target(message)
        with self.node.lock:
            return self._grant_reply(message)


class _NodeWorker(threading.Thread):
    def __init__(self, runner: "ThreadedCoSimulation", node: PiaNode,
                 until: float) -> None:
        super().__init__(name=f"pia-node-{node.name}", daemon=True)
        self.runner = runner
        self.node = node
        self.until = until
        self.dispatched = 0
        self.error: Optional[BaseException] = None
        self.idle = threading.Event()
        #: Set by the coordinator when this node's scheduled crash fires.
        self.down = threading.Event()

    def run(self) -> None:
        detector = self.runner.detector
        try:
            while not self.runner.stop_flag.is_set() \
                    and not self.down.is_set():
                if detector is not None:
                    detector.beat(self.node.name, _time.monotonic())
                # Cleared *before* the round, not after: while an event is
                # mid-dispatch it is already popped from the queue, so a
                # worker crunching a long event shows next_event_time inf
                # and nothing in flight — a stale idle flag from the last
                # empty round would let the quiescence sweep pass mid-run.
                self.idle.clear()
                progress, count = self.node.step(self.until)
                self.dispatched += count
                if not progress:
                    self.idle.set()
                    _time.sleep(0.001)
        except BaseException as exc:   # surface into the coordinator
            self.error = exc
            self.runner.stop_flag.set()
        finally:
            self.idle.set()


class ThreadedCoSimulation(LiveSystem):
    """Run each Pia node on its own thread (conservative channels only).

    With a ``fault_plan`` attached, message chaos is injected at the
    transport boundary exactly as in :class:`CoSimulation`, and scheduled
    node crashes stop that node's worker mid-run.  A heartbeat failure
    detector (wall-clock seconds here) confirms the loss; the threaded
    executor cannot roll back, so a confirmed loss always surfaces as a
    typed :class:`~repro.core.errors.NodeFailure`.
    """

    CHANNEL_PREFIX = "tch"
    SERVICE = LockedSafeTimeService
    MODES = (ChannelMode.CONSERVATIVE,)

    def __init__(self, *, transport=None,
                 default_model: LatencyModel = SAME_HOST,
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 heartbeat_timeout: float = 1.0,
                 batching: bool = False) -> None:
        super().__init__(transport=transport, default_model=default_model,
                         telemetry=telemetry, fault_plan=fault_plan,
                         retry_policy=retry_policy, batching=batching)
        self.stop_flag = threading.Event()
        self.detector: Optional[FailureDetector] = None
        if fault_plan is not None:
            self.detector = FailureDetector(timeout=heartbeat_timeout)

    def _node_added(self, node: PiaNode) -> None:
        node.service_bound = self._next_crash

    # ------------------------------------------------------------------
    def run(self, until: float = float("inf"), *,
            timeout: float = 60.0) -> int:
        """Run all nodes concurrently until quiescence; returns events."""
        self.validate_topology()
        for name in sorted(self.nodes):
            node = self.nodes[name]
            with node.lock:
                node.start()
        self.stop_flag.clear()
        workers = [_NodeWorker(self, self.nodes[name], until)
                   for name in sorted(self.nodes)]
        by_name = {worker.node.name: worker for worker in workers}
        self._arm_crashes()
        if self.detector is not None:
            now = _time.monotonic()
            for name in by_name:
                self.detector.beat(name, now)
        for worker in workers:
            worker.start()
        deadline = _time.monotonic() + timeout
        failed: Optional[str] = None
        try:
            while _time.monotonic() < deadline:
                if self.stop_flag.is_set():
                    break
                series = self.telemetry.series
                if series is not None:
                    # Sampled from the coordinator sweep: node threads
                    # advance concurrently, so the points are a
                    # measurement, not part of the deterministic report.
                    series.tick(self.global_time(), self.telemetry.registry)
                # The workers are held at the crash's instant (their
                # service bound), so it fires there — once nothing at or
                # before it is left — not whenever this sweep looks.
                for crash in self._due_crashes():
                    # Stop the worker; its traffic is lost from here on.
                    by_name[crash.node].down.set()
                    self._mark_down(crash.node)
                if self.detector is not None:
                    suspects = self.detector.suspects(_time.monotonic())
                    if suspects:
                        failed = suspects[0]
                        self.stop_flag.set()
                        break
                # Quiescence is an illusion while a node is down: its
                # one-way peers finish without it.  Wait for the detector.
                if not any(worker.down.is_set() for worker in workers) \
                        and self._quiescent(workers, until):
                    break
                _time.sleep(0.002)
            else:
                self.stop_flag.set()
                self.telemetry.flight.note(
                    TraceKind.ABORT, "threaded", time=self.global_time(),
                    reason="quiesce-timeout")
                self.telemetry.flight.dump(tag="threaded",
                                           reason="quiesce-timeout")
                raise SimulationError(
                    f"threaded run did not quiesce within {timeout}s")
        finally:
            self.stop_flag.set()
            for worker in workers:
                worker.join(timeout=5.0)
        if failed is not None:
            raise NodeFailure(
                f"node {failed!r} stopped heartbeating — the threaded "
                "executor cannot roll back; rerun under CoSimulation with "
                "failure_policy='recover' for crash recovery", node=failed)
        for worker in workers:
            if worker.error is not None:
                if isinstance(worker.error, LinkDown):
                    raise NodeFailure(
                        f"node {worker.node.name!r} lost its link towards "
                        f"{worker.error.dst!r}: {worker.error}",
                        node=worker.error.dst) from worker.error
                raise worker.error
        return sum(worker.dispatched for worker in workers)

    def _quiescent(self, workers, until: float) -> bool:
        """All workers idle and the run at its finish line, twice in a row.

        The idle flags are cleared for the whole duration of a round, so
        a worker mid-event can never look done; the finish line is
        :meth:`_reached`'s — nothing in ``pending()`` (inboxes, batcher,
        injector parking), the wire counters balanced (no frame sent and
        not yet filed by a receiver thread), no event left at or before
        ``until``.  Two sweeps guard against a worker waking between checks.
        """
        for __ in range(2):
            if not all(worker.idle.is_set() for worker in workers):
                return False
            if not self._reached(until, finish=True):
                return False
            _time.sleep(0.002)
        return True
