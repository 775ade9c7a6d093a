"""The single-host simulator facade (paper section 2.1).

A system of one :class:`~repro.core.subsystem.Subsystem`: it answers the
same ``subsystems`` mapping and ``global_time()`` as a co-simulation, so
the run-level surface (:class:`~repro.core.runlevel.RunLevels`), the
debugger and the run report read it as they read any system.  On top it
adds system construction, automatic periodic checkpoints, and the
optimistic run-with-recovery loop that dynamically marks synchronous
addresses and rewinds on violations.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..observability import RunReport, Telemetry, run_report
from .checkpoint import CheckpointStore
from .component import Component
from .errors import (
    CheckpointError,
    ConsistencyViolation,
    NoSuchCheckpointError,
    SimulationError,
)
from .events import Event, EventKind
from .net import Net
from .port import Port
from .runlevel import RunLevels
from .subsystem import Subsystem
from .sync import SyncTable
from .timestamp import PRIORITY_CONTROL, Timestamp


class Simulator(RunLevels):
    """Build and run a complete system on a single host."""

    def __init__(self, name: str = "system", *,
                 checkpoint_store: Optional[CheckpointStore] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.subsystem = Subsystem(name, checkpoint_store=checkpoint_store)
        self.subsystems = {name: self.subsystem}
        #: Run telemetry; on by default (the disabled path is a single
        #: attribute read, see repro.observability).
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.subsystem.attach_telemetry(self.telemetry)
        RunLevels.__init__(self)
        self._auto_interval: Optional[float] = None
        #: Rollback recoveries performed by :meth:`run_with_recovery`.
        self.recoveries = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        return self.subsystem.add(component)

    def wire(self, name: str, *ports: Port, delay: float = 0.0) -> Net:
        return self.subsystem.wire(name, *ports, delay=delay)

    def net(self, name: str) -> Net:
        return self.subsystem.net(name)

    # ------------------------------------------------------------------
    # time & execution
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.subsystem.now

    def global_time(self) -> float:
        return self.subsystem.now

    def run(self, until: float = float("inf"), *,
            max_events: Optional[int] = None) -> int:
        """Run until the event queue drains or passes ``until``."""
        self.subsystem.start()
        # Components may have run ahead during start (they execute until
        # their first receive), so conditions can already hold.
        self._poll_switchpoints()
        return self.subsystem.run(until, max_events=max_events)

    def step(self) -> Optional[Event]:
        self.subsystem.start()
        return self.subsystem.scheduler.step()

    def run_with_recovery(self, until: float = float("inf"), *,
                          sync_tables: Iterable[SyncTable] = (),
                          max_rollbacks: int = 100) -> int:
        """Run optimistically; on a consistency violation, mark & rewind.

        This is the paper's dynamic treatment of interrupts (section
        2.1.1): run with all memory assumed safe; when a violation is
        detected, mark the address synchronous in its :class:`SyncTable`
        (which survives rollback) and restore the most recent checkpoint
        not later than the violating write, then re-execute.
        """
        tables = list(sync_tables)
        store = self.subsystem.checkpoints
        if store.latest() is None:
            # Taken *before* start: components run ahead the moment they
            # start, so any later image may already contain the offending
            # optimistic accesses.
            self.switchpoints.save(
                self.subsystem.request_checkpoint(label="initial"))
        total = 0
        for __ in range(max_rollbacks + 1):
            try:
                total += self.run(until)
                return total
            except ConsistencyViolation as violation:
                self.recoveries += 1
                self._recover(violation, tables, store)
        raise SimulationError(
            f"gave up after {max_rollbacks} rollbacks; the system keeps "
            "violating consistency")

    def _recover(self, violation: ConsistencyViolation,
                 tables: list[SyncTable], store: CheckpointStore) -> None:
        if violation.address is not None:
            for table in tables:
                table.mark_synchronous(violation.address, dynamic=True)
        when = violation.violation_time
        if when is None:
            checkpoint_id = store.latest()
        elif violation.component is not None:
            # The image must predate the *component's* offending access —
            # it may have run far ahead of subsystem time.
            checkpoint_id = store.latest_for_component(violation.component,
                                                       when)
        else:
            checkpoint_id = store.latest_at_or_before(when)
        if checkpoint_id is None:
            raise CheckpointError(
                "consistency violation but no checkpoint to rewind to"
            ) from violation
        self.restore(checkpoint_id)
        image = store.image(checkpoint_id)
        for table in tables:
            table.forget_after(image.time)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, label: Optional[str] = None) -> int:
        self.subsystem.start()
        checkpoint_id = self.subsystem.request_checkpoint(label=label)
        # Switchpoint armed/fired state is simulation state too.
        self.switchpoints.save(checkpoint_id)
        return checkpoint_id

    def restore(self, checkpoint_id: Optional[int] = None) -> None:
        """Back to a checkpoint (default: the most recent one)."""
        if checkpoint_id is None:
            checkpoint_id = self.subsystem.checkpoints.latest()
            if checkpoint_id is None:
                raise NoSuchCheckpointError(
                    "no checkpoint to restore — take one with checkpoint()")
        self.subsystem.restore_checkpoint(checkpoint_id)
        self.switchpoints.load(checkpoint_id)

    def auto_checkpoint(self, interval: float) -> None:
        """Take a checkpoint every ``interval`` seconds of virtual time."""
        if interval <= 0:
            raise SimulationError(f"checkpoint interval must be > 0: {interval}")
        self._auto_interval = interval
        self._schedule_auto(self.now + interval)

    def _schedule_auto(self, at_time: float) -> None:
        self.subsystem.scheduler.schedule(
            Event(Timestamp(at_time, PRIORITY_CONTROL), EventKind.CONTROL,
                  target=self._auto_tick))

    def _auto_tick(self, event: Event) -> None:
        # Once the simulation has drained, stop: re-arming would keep an
        # otherwise-finished run alive forever, and a checkpoint after the
        # last event would record nothing new.
        if not self.subsystem.scheduler.queue:
            return
        self.checkpoint(label="auto")
        if self._auto_interval is not None:
            self._schedule_auto(event.time + self._auto_interval)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def report(self, *, title: Optional[str] = None) -> RunReport:
        """Assemble the :class:`~repro.observability.RunReport` so far."""
        return run_report(self, title=title or self.subsystem.name)
