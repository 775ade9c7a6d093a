"""The coordinator: bootstraps workers over the control pipes, judges by
status probes when the run has got to a service instant or to its end,
relocates nodes (failover, migration) and merges everyone's telemetry."""

from __future__ import annotations

import itertools
import json
import os
import time as _time
import weakref
from multiprocessing import connection as _mpconn
from typing import Callable, Dict, List, Optional, Tuple

from ...core.errors import (
    ConfigurationError,
    NodeFailure,
    SimulationError,
)
from ...faults import FailureDetector, FaultPlan, RetryPolicy
from ...observability import RunReport, Telemetry, TraceKind
from ...observability.report import bundle, fold
from ...transport.codec import VERSION as CODEC_VERSION
from ...transport.shm import DEFAULT_RING_CAPACITY, create_ring_segment
from .. import topology
from ..migration import MigrationRecord, NodeArchive
from ..system import (ServiceSchedule, check_failure_policy, file_crash,
                      reached)
from .pool import WorkerPool, _PoolWorker
from ..spec import SystemSpec
from .specs import TelemetrySpec, _WorkerSpec
from .worker import WorkerSystem

#: Wall seconds without a status reply before the supervisor's detector
#: suspects a worker (``failure_policy="recover"``).
HEARTBEAT_TIMEOUT = 5.0


def _json_safe(value):
    """``inf`` has no JSON encoding; status snapshots use ``null``."""
    return None if value == float("inf") else value


def status_snapshot(statuses: Dict[str, dict], *,
                    until: float = float("inf"),
                    phase: str = "running", report=None) -> dict:
    """Fold per-worker ``status?`` replies into one JSON-safe snapshot.

    Per node the idle flag, control-loop round count, parked/pending
    messages, wire counters and heartbeat age (seconds since the worker
    stamped its reply), and per subsystem the local virtual time, next
    event, event count, queue depth, safe-time horizon, stall state and
    the peer currently pinning the horizon.  With ``report`` — the
    :func:`~repro.observability.report.fold` of everyone's telemetry so
    far — the ``telemetry`` (counters, gauges), ``series`` and
    ``health`` sections :mod:`repro.observability.serve` exposes.
    """
    wall = _time.time()
    nodes = {}
    times = []
    for name in sorted(statuses):
        st = statuses[name]
        rows = []
        for row in st["subsystems"]:
            times.append(row["time"])
            rows.append(dict(row,
                             next_event=_json_safe(row["next_event"]),
                             horizon=_json_safe(row["horizon"])))
        nodes[name] = {
            "idle": st["idle"],
            "rounds": st["rounds"],
            "pending": st["pending"],
            "wire_out": st["wire_out"],
            "wire_in": st["wire_in"],
            "epoch": st.get("epoch", 0),
            "heartbeat_age": max(0.0, wall - st.get("wall", wall)),
            "subsystems": rows,
        }
    snapshot = {"phase": phase, "wall": wall, "until": _json_safe(until),
                "global_time": min(times, default=0.0), "nodes": nodes}
    if report is not None:
        snapshot["telemetry"] = {
            "counters": dict(report.counters),
            "gauges": {name: _json_safe(value)
                       for name, value in report.gauges.items()},
        }
        snapshot["series"] = {
            name: {"points": [[t, _json_safe(v)] for t, v in row["points"]]}
            for name, row in report.timeseries.items()}
        snapshot["health"] = report.link_health
    return snapshot


class MultiprocessCoSimulation:
    """Run each Pia node in its own OS process (conservative channels).

    The system is a :class:`~repro.distributed.spec.SystemSpec` — handed
    over whole (:meth:`load`) or declared on ``self.spec`` — because live
    components cannot cross ``spawn``: subsystems are named factories
    resolved in the worker process, channels are declared by subsystem
    and net names.
    Batching and grant piggybacking are on by default — synchronous
    safe-time traffic is what process-parallel deployments can least
    afford.

    With a ``fault_plan``, each worker runs the plan's per-node
    derivation (:meth:`~repro.faults.FaultPlan.for_node` — same seed, own
    crashes): message-fault decisions stay pure functions of the seed and
    per-link ordinals, so seeded chaos counters match the single-process
    executors.  A scheduled crash fires at its virtual instant, as under
    the other two: every worker holds its windows there until a settled
    probe says the run has got to it.  That, or a worker process dying,
    raises a typed :class:`~repro.core.errors.NodeFailure` — unless
    ``failure_policy="recover"`` restarts the node from the last cut on
    a fresh worker instead.
    """

    def __init__(self, *, telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 batching: bool = True,
                 transport: str = "tcp",
                 ring_capacity: int = DEFAULT_RING_CAPACITY,
                 pool: Optional[WorkerPool] = None,
                 failure_policy: str = "raise") -> None:
        if transport not in ("tcp", "shm"):
            raise ConfigurationError(
                f"unknown transport {transport!r}: expected 'tcp' (works "
                "across machines) or 'shm' (same-host shared-memory rings)")
        check_failure_policy(failure_policy)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.batching = batching
        self.transport = transport
        self.ring_capacity = ring_capacity
        self._pool = pool
        self._own_pool: Optional[WorkerPool] = None
        self._pool_finalizer = None
        #: The system under test; each worker realises its node's slice.
        self.spec = SystemSpec()
        #: Per-worker report bundles from the last completed run.
        self._bundles: Optional[Dict[str, dict]] = None
        self.dispatched = 0
        self.cpu_seconds = 0.0
        self._status_path: Optional[str] = None
        self._status_interval = 0.5
        self._status_listener: Optional[Callable[[dict], None]] = None
        self._status_published = 0.0
        self._last_statuses: Dict[str, dict] = {}
        # --- supervised failover / live migration state -----------------
        self.failure_policy = failure_policy
        #: Heartbeat detector for the last/current supervised run.
        self.detector: Optional[FailureDetector] = None
        #: Completed migrations/failovers of the last/current run.
        self.migrations: List[MigrationRecord] = []
        #: Placement timeline: (wall, node, worker process name, event).
        self.placement_log: List[dict] = []
        #: Scheduled crashes and requested migrations, by instant.
        self.schedule = ServiceSchedule()
        #: The service instant the workers currently hold at.
        self._shipped = float("inf")
        self._archives: Dict[str, NodeArchive] = {}
        self._restore_point: Optional[str] = None
        self._run_epoch = 0
        self._carryover: List[dict] = []
        #: Tokens for coordination acks (see ``_expect``'s ``match``).
        self._ctl_seq = itertools.count(1)
        #: Cut ids, numbered per executor (as a cooperative run's are per
        #: registry): a second run in one process sends the same marks.
        self._snapshot_ids = itertools.count(1)
        # Live per-run control-plane context (set by run(), mutated by
        # failover/migration while the run is in flight).
        self._ports: Dict[str, int] = {}
        self._segments: Dict[Tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def load(self, spec: SystemSpec) -> "MultiprocessCoSimulation":
        """Adopt ``spec`` as the system to run; returns ``self``."""
        self.spec = spec
        return self

    def worker_spec(self, node: str) -> _WorkerSpec:
        """The picklable bootstrap spec worker ``node`` receives."""
        if node not in self.spec.nodes:
            raise ConfigurationError(f"no node named {node!r}")
        plan = self.fault_plan.for_node(node) \
            if self.fault_plan is not None else None
        # Workers mirror the telemetry plane this executor was handed.
        telemetry, series = self.telemetry, self.telemetry.series
        return _WorkerSpec(
            node=node,
            subsystems=tuple(self.spec.nodes[node]),
            channels=tuple(cs for cs in self.spec.channels
                           if cs.touches(node)),
            links=tuple(self.spec.links),
            batching=self.batching,
            fault_plan=plan,
            retry_policy=self.retry_policy,
            transport=self.transport,
            supervised=self.failure_policy == "recover",
            telemetry=TelemetrySpec(
                telemetry.trace_buffer.capacity,
                None if series is None else dict(
                    virtual_interval=series.virtual_interval,
                    wall_interval=series.wall_interval,
                    capacity=series.capacity, names=series.names),
                telemetry.health is not None),
        )

    def _ring_links(self) -> List[Tuple[str, str]]:
        """Every directed node pair a channel crosses — one shm ring each."""
        links = set()
        for cs in self.spec.channels:
            if cs.node_a != cs.node_b:
                links.add((cs.node_a, cs.node_b))
                links.add((cs.node_b, cs.node_a))
        return sorted(links)

    def _acquire_pool(self) -> WorkerPool:
        if self._pool is not None:
            return self._pool
        if self._own_pool is None:
            self._own_pool = WorkerPool()
            # Tie the private pool's lifetime to this executor so dropped
            # instances do not strand warm processes.
            self._pool_finalizer = weakref.finalize(
                self, WorkerPool.close, self._own_pool)
        return self._own_pool

    def close(self) -> None:
        """Shut down the executor's private warm pool (shared pools passed
        via ``pool=`` are the caller's to close)."""
        if self._own_pool is not None:
            self._own_pool.close()
            self._own_pool = None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None

    def __enter__(self) -> "MultiprocessCoSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_topology(self) -> None:
        """Specs cannot see port directions, so the check is the safe
        over-approximation of the paper's simple-cycle rule: every
        channel counts as sending both ways, where an undirected cycle of
        length >= 3 is exactly a non-simple directed one."""
        for cs in self.spec.channels:
            # Refused here rather than by a worker, after the spawn.
            WorkerSystem.check_mode(cs.mode)
        topology.validate(
            pair for cs in self.spec.channels
            for pair in ((cs.subsystem_a, cs.subsystem_b),
                         (cs.subsystem_b, cs.subsystem_a)))

    # ------------------------------------------------------------------
    # live migration requests
    # ------------------------------------------------------------------
    def migrate_at(self, node: str, at_time: float) -> None:
        """Request a live migration of ``node`` to a fresh pool worker
        once the run has got to virtual ``at_time`` (deterministic
        trigger point; at once, if asked mid-run for an instant already
        passed — ``float("-inf")`` is "now").

        Thread-safe: callable from a ``status_listener`` (or any other
        thread) while :meth:`run` is in flight; the supervision loop
        picks the request up on its next sweep.  Requires
        ``failure_policy="recover"``.
        """
        if node not in self.spec.nodes:
            raise ConfigurationError(f"no node named {node!r}")
        if self.failure_policy != "recover":
            raise ConfigurationError(
                "live migration requires failure_policy='recover'")
        self.schedule.add(at_time, "migrate", node)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float = float("inf"), *,
            timeout: float = 60.0,
            status_path: Optional[str] = None,
            status_interval: float = 0.5,
            status_listener: Optional[Callable[[dict], None]] = None) -> int:
        """Run all nodes in parallel processes until global quiescence
        (or every event queue passes ``until``); returns total events.

        ``status_path`` enables live introspection: the coordinator's
        supervision loop writes a JSON
        :func:`status_snapshot` there (atomically, every
        ``status_interval`` seconds, plus a final ``phase: "done"``
        snapshot) which ``python -m repro.observability.serve <path>``
        serves as ``/status.json`` and ``/metrics``.
        ``status_listener`` receives the same snapshots in-process.  A
        snapshot's telemetry sections are the :meth:`report` of the run
        so far: the same fold over every worker's bundle, asked for only
        when a snapshot is published.
        """
        if not self.spec.nodes:
            return 0
        self._check_topology()
        self.schedule.arm_crashes(self.fault_plan, self.spec.nodes)
        self._status_path = status_path
        self._status_interval = status_interval
        self._status_listener = status_listener
        self._status_published = 0.0
        self._last_statuses: Dict[str, dict] = {}
        self.migrations = []
        self.placement_log = []
        self._archives = {}
        self._restore_point = None
        self._run_epoch = 0
        self._carryover = []
        self.detector = FailureDetector(timeout=HEARTBEAT_TIMEOUT) \
            if self.failure_policy == "recover" else None
        started_at = _time.perf_counter()
        pool = self._acquire_pool()
        names = sorted(self.spec.nodes)
        workers = pool.acquire(len(names))
        #: node -> its worker; a relocation swaps entries in place.
        procs: Dict[str, _PoolWorker] = dict(zip(names, workers))
        pipes: Dict[str, object] = {name: worker.conn
                                    for name, worker in procs.items()}
        self._segments = {}
        deadline = _time.monotonic() + timeout
        for name in names:
            self._log_placement(name, procs[name], "assigned")
        try:
            for name in names:
                self._send(pipes, name, "job", self.worker_spec(name))
            self._ports = {name: self._hello_port(pipes, procs, name,
                                                  deadline)
                           for name in names}
            if self.transport == "shm":
                # One SPSC ring per directed link, created here so the
                # coordinator owns (and can always unlink) the segments.
                for link in self._ring_links():
                    self._segments[link] = \
                        create_ring_segment(self.ring_capacity)
            for name in names:
                self._introduce(name, pipes)
            # Barrier: a worker handles control in order, so its status
            # reply proves it knows its peers.  Without it a fast starter's
            # safe-time call can reach a worker that cannot yet route the
            # transitive refresh towards its own other peers.
            for name in names:
                self._send(pipes, name, "status?", False)
            for name in names:
                self._expect(pipes, procs, name, "status", deadline)
            if self.failure_policy == "recover":
                # Baseline restore point: a pre-start Chandy-Lamport cut,
                # archived coordinator-side before any event dispatches.
                self._take_snapshot(pipes, procs, deadline)
            self._start(pipes, until)
            self._supervise(pipes, procs, until, deadline)
            bundles: Dict[str, dict] = {}
            for name in names:
                self._send(pipes, name, "report?")
                bundles[name] = self._expect(pipes, procs, name, "report",
                                             deadline)
            self._bundles = bundles
            self.dispatched = sum(b["dispatched"] for b in bundles.values())
            if self._last_statuses and self._publishing():
                self._publish_status(self._last_statuses, bundles, until,
                                     phase="done")
        finally:
            for name in names:
                try:
                    self._send(pipes, name, "stop")
                except NodeFailure:
                    pass    # already gone: nobody to say goodbye to
            for name in names:
                clean = self._drain_job_done(procs[name], timeout=2.5)
                pool.release(procs[name], healthy=clean)
            # Workers have detached from their ring segments (job-done
            # comes after transport close), so unlink retires them.
            for segment in self._segments.values():
                try:
                    segment.close()
                    segment.unlink()
                except OSError:
                    pass
            self._segments = {}
        elapsed = _time.perf_counter() - started_at
        self.cpu_seconds += elapsed
        if self.telemetry.enabled:
            self.telemetry.registry.timer("executor.run").add(elapsed)
            self.telemetry.gauge("mp.workers", len(procs))
            self.telemetry.gauge("mp.pool_spawned", pool.spawned)
        return self.dispatched

    @staticmethod
    def _drain_job_done(worker: _PoolWorker, *, timeout: float) -> bool:
        """Wait for the worker's ``job-done`` teardown ack, swallowing
        whatever the aborted job left queued (stale statuses, idle notes,
        parting errors).  Returns False — do not reuse — on silence or a
        dead pipe."""
        deadline = _time.monotonic() + timeout
        while True:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                return False
            try:
                if not worker.conn.poll(remaining):
                    return False
                message = worker.conn.recv()
            except (EOFError, OSError):
                return False
            if message[0] == "job-done":
                return True

    #: Reply tags a cascading failure can leave queued from an aborted
    #: coordination round (plus status replies that outlive their sweep).
    #: They are dropped when a different tag is expected; token-bearing
    #: acks are additionally vetted by ``match``.
    _STALE_OK = frozenset(("halted", "restored", "cut-data", "status"))

    def _hello_port(self, pipes, procs, name: str, deadline: float) -> int:
        """Receive a worker's ``port`` hello and vet its codec version.

        The wire format is only compatible between processes importing
        the same codec layout; a stale worker must fail the deployment
        loudly here instead of poisoning peers with undecodable frames.
        """
        payload = self._expect(pipes, procs, name, "port", deadline)
        port, version = payload
        if version != CODEC_VERSION:
            raise ConfigurationError(
                f"worker {name!r} speaks wire codec v{version}, "
                f"coordinator speaks v{CODEC_VERSION} — all processes "
                "must run the same build")
        return port

    @staticmethod
    def _send(pipes, name: str, *message) -> None:
        """One control message to worker ``name``.  A dead pipe is that
        node's death, typed like one noticed on a receive."""
        try:
            pipes[name].send(message)
        except OSError:
            raise NodeFailure(
                f"node {name!r}: control pipe closed mid-run",
                node=name) from None

    def _start(self, pipes, until: float) -> None:
        """(Re)start every worker, to hold at the next service instant."""
        self._shipped = self.schedule.next_instant()
        for name in sorted(self.spec.nodes):
            self._send(pipes, name, "start", until, self._shipped)

    def _expect(self, pipes, procs, name: str, tag: str, deadline: float,
                *, match=None):
        """Wait for one ``tag`` message from worker ``name``.

        ``note`` messages (idle-edge wakeups) are advisory and skipped,
        as are stale acks from aborted coordination rounds (see
        ``_STALE_OK``); ``match`` vets the payload of a matching tag and
        skips it when it returns False (an ack for an older token).
        A worker that died with a parting ``error`` still queued gets
        that error surfaced — its pipe reads succeed until drained —
        rather than a generic death message.
        """
        conn = pipes[name]
        while True:
            remaining = max(0.0, deadline - _time.monotonic())
            if not conn.poll(remaining):
                if not procs[name].is_alive():
                    raise NodeFailure(
                        f"node {name!r}: worker process died without a "
                        f"{tag!r} reply", node=name)
                raise SimulationError(
                    f"node {name!r}: worker unresponsive (no {tag!r} within "
                    "the run timeout)")
            try:
                message = conn.recv()
            except (EOFError, OSError):     # a killed worker's pipe resets
                raise NodeFailure(
                    f"node {name!r}: worker process died mid-run",
                    node=name) from None
            if message[0] == "note":
                continue
            if message[0] == "error":
                raise NodeFailure(
                    f"node {name!r} worker failed: {message[1]}", node=name)
            if message[0] != tag:
                if message[0] in self._STALE_OK:
                    continue
                raise SimulationError(
                    f"node {name!r}: expected {tag!r} from worker, got "
                    f"{message[0]!r}")
            if match is not None and not match(message[1]):
                continue
            return message[1]

    def _publishing(self) -> bool:
        """Does anyone read status snapshots?"""
        return self._status_path is not None \
            or self._status_listener is not None

    def _publish_due(self) -> bool:
        """Is a status snapshot owed this sweep?"""
        return self._publishing() and _time.monotonic() \
            - self._status_published >= self._status_interval

    def _publish_status(self, statuses: Dict[str, dict],
                        bundles: Dict[str, dict], until: float, *,
                        phase: str = "running") -> None:
        """Publish a snapshot of the worker ``statuses`` whose telemetry
        is :meth:`report`'s fold over ``bundles``, one per node."""
        self._status_published = _time.monotonic()
        snapshot = status_snapshot(statuses, until=until, phase=phase,
                                   report=self._fold("live", bundles))
        if self.failure_policy == "recover":
            snapshot["epoch"] = self._run_epoch
            snapshot["placement"] = [dict(entry)
                                     for entry in self.placement_log]
            snapshot["migrations"] = [record.to_dict()
                                      for record in self.migrations]
        if self._status_listener is not None:
            self._status_listener(snapshot)
        if self._status_path is not None:
            # Atomic replace after an fsync: a concurrent reader always
            # sees a complete JSON document, and a crash straddling the
            # replace cannot leave a zero-length file where a monitor
            # expected the last good snapshot.
            tmp = f"{self._status_path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._status_path)

    # ------------------------------------------------------------------
    # supervised failover / live migration
    # ------------------------------------------------------------------
    def _log_placement(self, node: str, worker: _PoolWorker,
                       event: str) -> None:
        self.placement_log.append({
            "wall": _time.time(), "node": node, "event": event,
            "worker": getattr(worker.proc, "name", "?"),
            "pid": getattr(worker.proc, "pid", None),
            "epoch": self._run_epoch,
        })

    def _beat_all(self, names) -> None:
        """Fresh heartbeats all round: the run (re)starts from here."""
        if self.detector is not None:
            now = _time.monotonic()
            for name in names:
                self.detector.beat(name, now)

    def _take_snapshot(self, pipes, procs, deadline: float) -> None:
        """Coordinate a Chandy-Lamport cut and archive it here.

        Every worker cuts its local subsystems, lets the marks cross,
        and pushes a :class:`NodeArchive` back — the coordinator is the
        run's stable storage, so the restore point survives any worker.
        """
        names = sorted(self.spec.nodes)
        snapshot_id = f"snap-{next(self._snapshot_ids)}"
        for name in names:
            self._send(pipes, name, "cut", snapshot_id)
        self._archives = {name: self._expect(
            pipes, procs, name, "cut-data", deadline,
            match=lambda a: a.snapshot_id == snapshot_id) for name in names}
        self._restore_point = snapshot_id
        self.telemetry.count("migration.snapshots")

    def _resplice(self, moved, pipes, procs) -> None:
        """Re-splice every channel endpoint that touches a moved node:
        shm rings are recreated (a killed producer can leave a torn
        frame), survivors drop cached connections and stale peer
        addresses, and the moved nodes learn the full peer map."""
        names = sorted(self.spec.nodes)
        moved_set = set(moved)
        fresh: Dict[Tuple[str, str], str] = {}
        if self.transport == "shm":
            for link in self._ring_links():
                if not (set(link) & moved_set):
                    continue
                old = self._segments.pop(link, None)
                if old is not None:
                    try:
                        old.close()
                        old.unlink()
                    except OSError:
                        pass
                segment = create_ring_segment(self.ring_capacity)
                self._segments[link] = segment
                fresh[link] = segment.name
        moved_peers = {name: ("127.0.0.1", self._ports[name])
                       for name in sorted(moved_set)}
        for name in names:
            if name in moved_set:
                continue
            # ``peers`` first: it retires the survivor's rings to the
            # moved nodes (shm) and closes cached connections, so the
            # fresh ring attach below cannot be clobbered.
            self._send(pipes, name, "peers", moved_peers)
            touched = {link: ring for link, ring in fresh.items()
                       if name in link}
            if touched:
                self._send(pipes, name, "rings", touched)
        for name in sorted(moved_set):
            self._introduce(name, pipes)

    def _introduce(self, name: str, pipes) -> None:
        """Tell worker ``name`` every peer's address, then its shm rings
        (in that order: learning a peer detaches its old rings)."""
        peers = {peer: ("127.0.0.1", port)
                 for peer, port in self._ports.items() if peer != name}
        self._send(pipes, name, "peers", peers)
        if self.transport == "shm":
            mine = {link: seg.name for link, seg in self._segments.items()
                    if name in link}
            self._send(pipes, name, "rings", mine)

    def _restore_all(self, pipes, procs,
                     deadline: float) -> Tuple[int, int]:
        """Roll every worker back to the current restore point under a
        new migration epoch.  Returns (archived bytes, replayed count)."""
        names = sorted(self.spec.nodes)
        self._run_epoch += 1
        snapshot_bytes = replayed = 0
        for name in names:
            archive = self._archives[name]
            snapshot_bytes += archive.storage_bytes()
            replayed += sum(len(messages) for __, recorded
                            in archive.cuts.values()
                            for messages in recorded.values())
            self._send(pipes, name, "restore", {
                "epoch": self._run_epoch,
                "cuts": archive.cuts,
                "minter_ordinals": archive.minter_ordinals,
            })
        epoch = self._run_epoch
        for name in names:
            self._expect(pipes, procs, name, "restored", deadline,
                         match=lambda e: e == epoch)
        return snapshot_bytes, replayed

    def _relocate(self, nodes, pipes, procs, until: float, deadline: float,
                  global_now: float, *, reason: str) -> None:
        """Move ``nodes`` to fresh pool workers and resume the run — the
        one relocation body, whatever the cause (DESIGN.md §5).

        A *live* source (``reason="requested"``) loses nothing: halt,
        cut, carry its report home, retire it cleanly.  A *dead*
        one is killed and the run rolls back to the last restore point.
        From the adoption on the two are one.  A worker dying at any
        step (a :class:`NodeFailure` naming it) joins the dead and the
        round restarts; a live move it interrupts is abandoned, its
        nodes failing over too so that none is left half-adopted.
        """
        names = sorted(self.spec.nodes)
        moved = sorted(set(nodes))
        live = reason == "requested"
        wall_started = _time.perf_counter()
        pool = self._acquire_pool()
        attempts = 0
        while True:
            for name in moved:
                self.telemetry.note(TraceKind.MIGRATION, time=global_now,
                                    subject=name, reason=reason,
                                    epoch=self._run_epoch + 1)
            self.telemetry.flight.dump(
                tag="coordinator",
                reason="migrate" if live else f"failover: {reason}")
            try:
                if not live:
                    # First, so that no survivor stays blocked on a call
                    # into a worker that is hung rather than gone.
                    for name in moved:
                        procs[name].kill()
                        self.detector.forget(name)
                        # Unhealthy: the pool respawns the slot.
                        pool.release(procs[name], healthy=False)
                        self._log_placement(name, procs[name], "lost")
                # Stop the world; halted workers keep pumping the wire.
                # The token is echoed: acks an aborted round left queued
                # cannot be misread by the retry.
                token = f"halt-{next(self._ctl_seq)}"
                halting = [name for name in names if live or name not in moved]
                for name in halting:
                    self._send(pipes, name, "halt", token)
                for name in halting:
                    self._expect(pipes, procs, name, "halted", deadline,
                                 match=lambda t: t == token)
                if live:
                    # Fired from a settled sweep, the cut meets a balanced
                    # wire, and *advances* the restore point.
                    self._take_snapshot(pipes, procs, deadline)
                # Acquired *before* a live source is released: a released
                # worker goes straight back into the idle set, and a
                # "migration" that re-adopts the process it just left
                # would move nothing.
                replacements = pool.acquire(len(moved))
                for name, worker in zip(moved, replacements):
                    if live:
                        # Carry the old worker's telemetry home before
                        # releasing it: pre-migrate spans must stay in
                        # the merged trace so post-migrate receives
                        # still chain to their sends.
                        self._send(pipes, name, "report?")
                        self._carryover.append(self._expect(
                            pipes, procs, name, "report", deadline))
                        self._send(pipes, name, "stop")
                        clean = self._drain_job_done(procs[name], timeout=2.5)
                        pool.release(procs[name], healthy=clean)
                        self._log_placement(name, procs[name], "released")
                    procs[name] = worker
                    pipes[name] = worker.conn
                    self._log_placement(name, worker, "adopted")
                    self._send(pipes, name, "job", self.worker_spec(name))
                for name in moved:
                    self._ports[name] = self._hello_port(pipes, procs, name,
                                                         deadline)
                self._resplice(moved, pipes, procs)
                snapshot_bytes, replayed = self._restore_all(
                    pipes, procs, deadline)
                self._start(pipes, until)
            except NodeFailure as exc:
                attempts += 1
                if exc.node is None or attempts > 2 * len(names) + 4:
                    raise
                moved = sorted(set(moved) | {exc.node})
                live, reason = False, "worker-death"
                continue
            break
        self._beat_all(names)
        wall_pause = _time.perf_counter() - wall_started
        for name in moved:
            self.telemetry.count("migration.migrations" if live
                                 else "migration.failovers")
            self.migrations.append(MigrationRecord(
                kind="migrate" if live else "failover", node=name,
                reason=reason, epoch=self._run_epoch,
                snapshot_id=self._restore_point,
                at_global_time=global_now, wall_pause=wall_pause,
                snapshot_bytes=snapshot_bytes,
                replayed_messages=replayed))

    def _supervise(self, pipes, procs, until: float,
                   deadline: float) -> None:
        """Probe workers until the run settles — a double probe over
        idle flags, next events and wire-counter sums, judged by
        :func:`reached` at ``min(until, the instant the workers hold
        at)`` — then fire what is owed there, or return: the run is over.

        Under ``failure_policy="recover"`` this is the supervisor: every
        status reply feeds the heartbeat detector, and a dead, silent or
        crashed worker is relocated (:meth:`_relocate`) instead of
        raising :class:`NodeFailure`."""
        supervised = self.failure_policy == "recover"
        self._beat_all(sorted(procs))
        confirming = None
        global_now = 0.0    # as of the last sweep that heard from everyone
        while True:
            # What a settled sweep saw lives for exactly one more sweep.
            previous, confirming = confirming, None
            if _time.monotonic() > deadline:
                self.telemetry.flight.note(TraceKind.ABORT, "supervise",
                                           reason="quiesce-timeout")
                self.telemetry.flight.dump(tag="coordinator",
                                           reason="quiesce-timeout")
                raise SimulationError(
                    "multiprocess run did not quiesce within the timeout")
            statuses: Dict[str, dict] = {}
            publish = self._publish_due()
            try:
                for name in sorted(procs):
                    if not procs[name].is_alive():
                        # Give a parting "error" message precedence over
                        # the bare death, if one is queued.  A dead
                        # worker's pipe never blocks (EOF is readable),
                        # so the real run deadline is safe — and unlike
                        # a zero deadline it cannot race past a queued
                        # error into the generic "unresponsive" path.
                        self._expect(pipes, procs, name, "status", deadline)
                    self._send(pipes, name, "status?", publish)
                for name in sorted(procs):
                    probe_deadline = deadline if not supervised else min(
                        deadline, _time.monotonic() + HEARTBEAT_TIMEOUT)
                    try:
                        statuses[name] = self._expect(
                            pipes, procs, name, "status", probe_deadline)
                    except SimulationError:
                        if not supervised:
                            raise
                        # Silent within the heartbeat window: no beat
                        # this sweep — the detector decides when silence
                        # becomes a confirmed failure.
                        continue
                    if supervised:
                        self.detector.beat(name, _time.monotonic())
                dead = self.detector.suspects(_time.monotonic()) \
                    if supervised else []
            except NodeFailure as exc:
                # A death, noticed on a send or on a receive.  Others
                # that died with it join the relocation as it trips over
                # them; replies this sweep leaves queued are stale there.
                if not supervised:
                    raise
                dead = [exc.node]
            if dead:
                self._relocate(dead, pipes, procs, until, deadline,
                               global_now, reason="worker-death")
                continue
            rows = [row for name in sorted(statuses)
                    for row in statuses[name]["subsystems"]]
            clocks = [row["time"] for row in rows]
            global_now = min(clocks, default=0.0)
            self._last_statuses = statuses
            if publish:
                self._publish_status(
                    statuses, {name: st["telemetry"]
                               for name, st in statuses.items()
                               if "telemetry" in st}, until)
            if self.schedule.next_instant() != self._shipped:
                # A migration asked for mid-run: move the workers' hold
                # to it (at once, if its instant has already passed).
                self._start(pipes, until)
                continue
            instant = self._shipped
            next_events = [row["next_event"] for row in rows]
            adrift = any(st["pending"] for st in statuses.values()) \
                or sum(st["wire_out"] for st in statuses.values()) \
                != sum(st["wire_in"] for st in statuses.values())
            # Settled: every worker idle and nothing at or before the
            # hold (or the finish line, if that comes first) left.
            if not (len(statuses) == len(procs)
                    and all(st["idle"] for st in statuses.values())
                    and reached(min(until, instant), clocks, next_events,
                                lambda: adrift, finish=True)):
                # Busy sweep: park until a worker speaks (an idle note,
                # a queued error) instead of polling on a fixed cadence.
                # The backstop keeps status publishing and mid-run
                # migration requests on time even if every pipe stays
                # silent.
                backstop = 0.25
                if self._publishing():
                    backstop = min(0.25, max(0.05,
                                             self._status_interval / 2))
                _mpconn.wait([pipes[name] for name in sorted(procs)],
                             timeout=min(backstop,
                                         max(0.0,
                                             deadline - _time.monotonic())))
                continue
            signature = tuple(
                [(row["name"], row["time"], row["dispatched"])
                 for row in rows]
                + [(name, st["wire_out"], st["wire_in"])
                   for name, st in sorted(statuses.items())])
            if signature != previous:
                # First settled sweep: confirm immediately.  The double
                # probe only needs two observations with no progress in
                # between; waiting would just delay the decision.
                confirming = signature
                continue
            if instant > until or \
                    not reached(instant, clocks, next_events, lambda: adrift):
                return      # finished: no instant left the run will get to
            # Scheduled crashes go first; a migration owed at the same
            # instant waits for the rolled-back run to get there again.
            crashed = [crash.target for crash in self.schedule.take_due(
                lambda at: at <= instant, ("crash",))]
            for node in crashed:
                # Supervised, a scheduled NodeCrash models the whole
                # machine dying: its worker is killed and it fails over.
                file_crash(self.telemetry, node, global_now,
                           self.failure_policy)
            moved = crashed or [move.target for move in self.schedule.take_due(
                lambda at: at <= instant, ("migrate",))]
            self._relocate(moved, pipes, procs, until, deadline, global_now,
                           reason="scheduled-crash" if crashed
                           else "requested")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def global_time(self) -> float:
        """The slowest subsystem's final time (after a completed run)."""
        if not self._bundles:
            return 0.0
        return min((row["time"] for bundle in self._bundles.values()
                    for row in bundle["subsystems"]), default=0.0)

    def report(self, *, title: Optional[str] = None) -> RunReport:
        """Fold the coordinator's own bundle and every worker's into one
        :class:`~repro.observability.RunReport` (single-process shape)."""
        if self._bundles is None:
            raise SimulationError(
                "no completed multiprocess run to report on — call run() "
                "first")
        return self._fold(title or "multiprocess co-simulation",
                          self._bundles)

    def _fold(self, title: str, bundles: Dict[str, dict]) -> RunReport:
        """The coordinator's own bundle, ``bundles`` (one per node) and
        those of workers a migration retired, folded into one report."""
        own = bundle(self.telemetry, migrations=self.migrations)
        if self.detector is not None:
            own["gauges"]["mp.suspicions"] = self.detector.suspicions
        return fold(title, [own, *(bundles[name] for name in sorted(bundles))],
                    superseded=self._carryover)
