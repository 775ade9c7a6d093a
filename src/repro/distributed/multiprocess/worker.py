"""The child-process side: one node, its control loop, and the process
entry point a warm pool worker runs."""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from typing import Dict, Optional, Tuple

from ...core.errors import TransportError
from ...observability import (
    Telemetry,
    TimeSeriesRecorder,
    TraceKind,
    attach_health,
)
from ...observability.report import bundle
from ...transport.codec import VERSION as CODEC_VERSION
from ...transport.latency import SAME_HOST
from ...transport.shm import SharedMemoryTransport
from ...transport.tcp import TcpTransport
from ..channel import ChannelMode
from ..migration import archive_node, restore_node
from ..snapshot import SnapshotManager, SnapshotRegistry
from ..spec import SystemSpec
from ..system import LiveSystem
from ..threaded import LockedSafeTimeService
from .specs import _WorkerSpec


class WorkerSystem(LiveSystem):
    """The live system of one worker process: its own node, wired by the
    same realiser as the in-process executors."""

    CHANNEL_PREFIX = "mch"
    SERVICE = LockedSafeTimeService
    MODES = (ChannelMode.CONSERVATIVE,)


class _ControlInbox:
    """The worker process's single wait point.

    A reader thread pushes every control-pipe message here; the
    transport's ``wakeup_hook`` kicks the same condition when network
    traffic arrives.  The serve loop can therefore *park* — one
    condition wait instead of a ``poll(0)``/sleep spin — and still react
    immediately to either control or data.
    """

    def __init__(self) -> None:
        self._messages: deque = deque()
        self._cond = threading.Condition()
        self._wake = False
        self.eof = False

    def push(self, message) -> None:
        with self._cond:
            self._messages.append(message)
            self._cond.notify_all()

    def push_eof(self) -> None:
        with self._cond:
            self.eof = True
            self._cond.notify_all()

    def kick(self) -> None:
        """Transport wakeup: remembered so a kick that lands between a
        worker's last poll and its park is not lost."""
        with self._cond:
            self._wake = True
            self._cond.notify_all()

    def pop(self):
        """Next queued control message, or None without blocking."""
        with self._cond:
            return self._messages.popleft() if self._messages else None

    def wait_control(self):
        """Block until a control message arrives; None means EOF."""
        with self._cond:
            while not self._messages:
                if self.eof:
                    return None
                self._cond.wait()
            return self._messages.popleft()

    def park(self, timeout: float) -> None:
        """Sleep until control, transport activity, EOF, or ``timeout``."""
        with self._cond:
            if not (self._wake or self._messages or self.eof):
                self._cond.wait(timeout)
            self._wake = False


class _Worker:
    """The child-process side: one node, its subsystems, and a control
    loop mirroring the threaded executor's per-node worker."""

    def __init__(self, spec: _WorkerSpec, conn,
                 inbox: Optional[_ControlInbox] = None) -> None:
        self.spec = spec
        self.conn = conn
        self.inbox = inbox if inbox is not None else _ControlInbox()
        mirror = spec.telemetry
        self.telemetry = Telemetry(trace_capacity=mirror.trace_capacity)
        carrier = SharedMemoryTransport if spec.transport == "shm" \
            else TcpTransport
        self.transport = carrier(batching=spec.batching)
        self.transport.wakeup_hook = self.inbox.kick
        self.system = WorkerSystem(
            transport=self.transport, default_model=SAME_HOST,
            telemetry=self.telemetry, fault_plan=spec.fault_plan,
            retry_policy=spec.retry_policy, batching=spec.batching)
        self.injector = self.system.fault_injector
        if mirror.series is not None:
            self.telemetry.attach_series(TimeSeriesRecorder(**mirror.series))
        if mirror.health:
            attach_health(self.transport, self.telemetry)
        self.system.load(
            SystemSpec({spec.node: list(spec.subsystems)},
                       list(spec.channels), list(spec.links)),
            only=spec.node)
        self.node = self.system.nodes[spec.node]
        # Chandy-Lamport participation: the coordinator triggers cuts
        # over the control pipe; marks cross between workers as ordinary
        # channel traffic.  Completion is judged against the *local*
        # subsystems — the coordinator assembles the global picture from
        # the archives each worker pushes back.
        self.registry = SnapshotRegistry()
        self.snapshots = SnapshotManager(
            self.node, self.registry, lambda: list(self.node.subsystems))
        self.snapshots.telemetry = self.telemetry
        #: Cut ids initiated here whose archive has not been pushed yet.
        self._open_cuts: set = set()
        self.until = float("inf")
        self.dispatched = 0
        #: Serve-loop sweeps: wall-paced (how many the OS scheduler let us
        #: run), so status replies carry it and it must NOT become a gauge
        #: — gauges land in the report's deterministic projection.
        self.rounds = 0
        #: Whether the last round moved anything (reported in status).
        self.progress = False

    # ------------------------------------------------------------------
    def _status(self, telemetry: bool) -> dict:
        """What a ``status?`` probe answers; with ``telemetry``, the
        :meth:`_report_bundle` so far, less its trace, rides along for
        the coordinator's live fold."""
        with self.node.lock:
            rows = []
            for name, subsystem in sorted(self.node.subsystems.items()):
                client = self.node.clients[name]
                horizon = client.horizon()
                blocking = client.blocking_endpoint()
                next_time = subsystem.next_event_time()
                rows.append({
                    "name": name,
                    "time": subsystem.now,
                    "next_event": next_time,
                    "dispatched": subsystem.scheduler.dispatched,
                    "stalls": subsystem.scheduler.stalls,
                    "queue_depth": len(subsystem.scheduler.queue),
                    "horizon": horizon,
                    "stalled": next_time != float("inf")
                        and next_time > horizon,
                    "waiting_on": None if blocking is None else
                        f"{blocking.peer_subsystem}@{blocking.peer_node}",
                })
            pending = self.transport.pending()
            status = {
                "node": self.node.name,
                "idle": not self.progress,
                "subsystems": rows,
                "wire_out": self.transport.wire_out,
                "wire_in": self.transport.wire_in,
                "pending": pending,
                "rounds": self.rounds,
                "epoch": self.transport.epoch,
                "stale_drops": self.transport.stale_epoch_drops,
                "wall": _time.time(),
            }
            if telemetry:
                status["telemetry"] = dict(self._report_bundle(), trace=[])
            return status

    def _report_bundle(self) -> dict:
        with self.node.lock:
            return dict(
                bundle(self.telemetry, self.node.subsystems.values(),
                       node=self.node.name, transport=self.transport,
                       injector=self.injector),
                dispatched=self.dispatched)

    # ------------------------------------------------------------------
    # migration plumbing (coordinator-triggered, over the control pipe)
    # ------------------------------------------------------------------
    def _drain_round(self) -> bool:
        """Pump and flush without running subsystems — the halted worker's
        round, so in-flight traffic (data, marks, fault-held deliveries)
        keeps draining while the simulation itself is stopped."""
        try:
            with self.node.lock:
                moved = self.node.pump() > 0
            self.transport.flush_batches(src=self.node.name)
        except TransportError:
            if not self.spec.supervised:
                raise
            return False
        return moved

    def _initiate_cut(self, snapshot_id: str) -> None:
        with self.node.lock:
            for name in sorted(self.node.subsystems):
                self.snapshots.initiate(self.node.subsystems[name],
                                        snapshot_id)
        self._open_cuts.add(snapshot_id)

    def _announce_cuts(self) -> None:
        """Push the archive for every locally completed cut — the paper's
        'transmit the checkpoint to stable storage' step, so a restore
        point survives the death of the worker that produced it."""
        for snapshot_id in sorted(self._open_cuts):
            snap = self.registry.snapshots.get(snapshot_id)
            if snap is None or not snap.complete:
                continue
            self._open_cuts.discard(snapshot_id)
            with self.node.lock:
                archive = archive_node(
                    self.node, self.registry, snapshot_id,
                    self.telemetry.spans.ordinals())
            self.conn.send(("cut-data", archive))

    def _restore(self, payload: dict) -> None:
        """Roll this node back to a restore point under a new epoch."""
        epoch = payload["epoch"]
        # Black box first: the discarded world's last moments are exactly
        # what a restore post-mortem needs, and the rollback wipes them.
        flight = self.telemetry.flight
        if len(flight):
            flight.note(TraceKind.CHECKPOINT_RESTORE, self.node.name,
                        epoch=epoch)
            flight.dump(tag=self.node.name, reason="restore")
        with self.node.lock:
            # Fence first: traffic minted in the discarded world must not
            # leak into the restored one.  ``set_epoch`` also rebases the
            # logical wire counters to a balanced zero on every worker,
            # and every span minted from here on is namespaced by the new
            # epoch its message carries, so the minter's ordinal streams
            # can restart at the restore point's without colliding.
            self.transport.set_epoch(epoch)
            self.transport.flush()
            minter = payload.get("minter_ordinals")
            if minter:
                self.telemetry.spans.load_ordinals(minter)
            # In-progress cuts recorded state of the discarded world.
            self.registry.snapshots.clear()
            self._open_cuts.clear()
            replayed = restore_node(self.node, payload["cuts"],
                                    payload["resent"])
            # run()'s contribution counter mirrors the restored schedulers
            # so merged dispatch totals match an uninterrupted run.
            self.dispatched = sum(ss.scheduler.dispatched
                                  for ss in self.node.subsystems.values())
        self.telemetry.count("migration.restores")
        if replayed:
            self.telemetry.count("migration.replayed_messages", replayed)

    # ------------------------------------------------------------------
    def serve(self) -> None:
        conn = self.conn
        inbox = self.inbox
        # Hello carries the wire-codec version: every process must speak
        # the same frame layout, and a mixed deployment (a stale worker
        # importing an old tree) must die at startup, not mid-run with a
        # cryptic decode error.
        conn.send(("port", (self.transport.local_port(self.node.name),
                            CODEC_VERSION)))
        running = False
        halted = False
        idle_noted = False
        while True:
            message = inbox.pop()
            if message is not None:
                tag = message[0]
                if tag == "peers":
                    # A peer's (new) home: any stale address, cached
                    # connections and (shm) rings towards it go first —
                    # a no-op for a peer never met.
                    for peer, (host, port) in sorted(message[1].items()):
                        self.transport.forget_peer(peer)
                        self.transport.set_peer(peer, port, host)
                elif tag == "rings":
                    self._attach_rings(message[1])
                elif tag == "start":
                    # Windows stop at ``bound``: a service is owed there.
                    __, self.until, bound = message
                    self.node.service_bound = lambda: bound
                    with self.node.lock:
                        self.node.start()
                    running = True
                    halted = False
                    idle_noted = False
                elif tag == "halt":
                    halted = True
                    try:
                        self.transport.flush_batches(src=self.node.name)
                    except TransportError:
                        if not self.spec.supervised:
                            raise
                    # Echo the token: the coordinator drops acks from
                    # coordination rounds a cascading failure aborted.
                    conn.send(("halted", message[1]))
                elif tag == "cut":
                    self._initiate_cut(message[1])
                elif tag == "restore":
                    self._restore(message[1])
                    # Stay parked until the coordinator's start: running
                    # ahead of peers still restoring would only mint
                    # traffic their epoch fence discards.
                    halted = True
                    conn.send(("restored", message[1]["epoch"]))
                elif tag == "status?":
                    conn.send(("status", self._status(message[1])))
                elif tag == "report?":
                    conn.send(("report", self._report_bundle()))
                elif tag == "stop":
                    return
                continue    # drain queued control before the next round
            if inbox.eof:
                # Coordinator gone: exit rather than linger as an orphan.
                return
            if not running or halted:
                if halted or self._open_cuts:
                    # Halted (or parked with an open cut): keep the wire
                    # draining so in-flight traffic and marks land, and
                    # push archives as cuts complete.
                    moved = self._drain_round()
                    self._announce_cuts()
                    inbox.park(0.01 if moved else 0.05)
                else:
                    inbox.park(60.0)
                continue
            try:
                self.progress, count = self.node.step(self.until)
                self.dispatched += count
            except TransportError:
                if not self.spec.supervised:
                    raise
                # A peer vanished mid-send.  The supervisor is about to
                # fail over and restore this worker — wedge (report no
                # progress, keep serving control) instead of dying, so
                # one dead node does not cascade into a dead cluster.
                self.progress = False
            self.rounds += 1
            series = self.telemetry.series
            if series is not None:
                # Sampled at the round boundary, never inside dispatch:
                # the virtual cadence is deterministic for a given
                # schedule, the wall cadence is a measurement.
                with self.node.lock:
                    now = self.system.global_time()
                series.tick(now, self.telemetry.registry,
                            wall=_time.monotonic())
            self._announce_cuts()
            if self.progress:
                idle_noted = False
                continue
            if not idle_noted:
                # One note per idle transition wakes the coordinator's
                # supervision wait without a per-round status storm.
                idle_noted = True
                conn.send(("note", "idle"))
            # Park until control or network traffic; the short backstop
            # covers tick-counted fault releases that arrive without a
            # wire-level wakeup.
            inbox.park(0.05)

    def _attach_rings(self, names: Dict[Tuple[str, str], str]) -> None:
        if not isinstance(self.transport, SharedMemoryTransport):
            return
        me = self.node.name
        for (src, dst), name in sorted(names.items()):
            if src == me:
                self.transport.attach_outbound_ring(src, dst, name)
            elif dst == me:
                self.transport.attach_inbound_ring(src, dst, name)

    def close(self) -> None:
        self.transport.close()


def _inbox_reader(conn, inbox: _ControlInbox) -> None:
    """Pump every control-pipe message into the inbox; EOF means the
    coordinator closed its end (or died)."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            inbox.push_eof()
            return
        inbox.push(message)


def _pool_main(conn) -> None:
    """Process entry point for a warm pool worker (top-level so it
    survives ``spawn`` pickling).

    The process outlives any single job: it loops receiving ``("job",
    spec)`` messages, runs a full :class:`_Worker` lifetime per job, and
    acknowledges teardown with ``("job-done",)`` so the coordinator
    knows the worker is clean to reuse.  The expensive part of
    process-per-node execution — ``spawn`` plus importing the framework
    — is paid once per *pool worker*, not once per ``run()``.
    """
    inbox = _ControlInbox()
    threading.Thread(target=_inbox_reader, args=(conn, inbox),
                     name="pia-pool-reader", daemon=True).start()
    while True:
        message = inbox.wait_control()
        if message is None:     # coordinator gone
            return
        tag = message[0]
        if tag == "exit":
            return
        if tag != "job":
            # Stray control from a job that already ended (a "stop" or
            # "status?" that raced the job-done ack): ignore.
            continue
        worker = None
        try:
            worker = _Worker(message[1], conn, inbox)
            worker.serve()
        except BaseException as exc:     # surface into the coordinator
            if worker is not None:
                # Crash post-mortem: dump the black box before the
                # process (or the next job) loses it.
                worker.telemetry.flight.dump(
                    tag=worker.node.name,
                    reason=f"{type(exc).__name__}: {exc}")
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except OSError:
                return
        finally:
            if worker is not None:
                try:
                    worker.close()
                except Exception:
                    pass
        try:
            conn.send(("job-done",))
        except OSError:
            return
