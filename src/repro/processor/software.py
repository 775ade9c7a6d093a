"""Software components: embedded programs running on a processor model.

"Currently in Pia, processors running software are represented by a
component which has as its behavior the actual software (in Java) that
would run on the embedded [processor]" (paper section 2.1).  Here the
actual software is a Python generator; timing estimates are embedded as
:meth:`BasicBlockTimer.block` commands, and memory is accessed through the
:class:`MemRead`/:class:`MemWrite` commands so the synchronous-address
machinery (and its optimistic violation detection) applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ..core.component import BLOCKED, REPLAY_END, ProcessComponent
from ..core.errors import SimulationError
from ..core.process import Command
from ..core.sync import SyncPolicy, SyncTable
from .memory import Memory
from .timing import GENERIC, BasicBlockTimer, ProcessorProfile


@dataclass(slots=True)
class MemRead(Command):
    """Read ``width`` bytes at ``addr``; resumes with the integer value.

    Synchronous addresses make the component level its local time with
    system time before the read (so every pending interrupt write lands
    first); optimistic addresses are read immediately and logged.
    """

    addr: int
    width: int = 4


@dataclass(slots=True)
class MemWrite(Command):
    """Write ``value`` (``width`` bytes) at ``addr``; same sync semantics."""

    addr: int
    value: int = 0
    width: int = 4


class SoftwareComponent(ProcessComponent):
    """A processor running firmware, with memory and a timing estimator.

    Subclasses implement :meth:`firmware`.  Inside it:

    * ``yield self.timer.block(alu=5, load=2)`` charges a basic block;
    * ``value = yield MemRead(addr)`` / ``yield MemWrite(addr, value)``
      access memory under the synchronous-address rules;
    * all the core commands (``Send``, ``Receive``, ``Transfer``...) work
      as usual.
    """

    def __init__(self, name: str, *, profile: ProcessorProfile = GENERIC,
                 memory_size: int = 64 * 1024,
                 sync_policy: SyncPolicy = SyncPolicy.STATIC,
                 synchronous_addresses=()) -> None:
        super().__init__(name)
        self._pending_mem: Optional[Command] = None
        self._seal_infra()
        # The table is infrastructure shared across rollbacks.  The memory
        # object is also infrastructure — other components (interrupt
        # controllers, DMA engines) hold references to it, so restores must
        # mutate it in place rather than replace it; its *contents* are
        # snapshotted explicitly below.
        self.sync_table = SyncTable(synchronous_addresses, sync_policy,
                                    owner=name)
        self.memory = Memory(memory_size, sync_table=self.sync_table)
        self._infra_keys.update({"sync_table", "memory"})
        self.profile = profile
        self.timer = BasicBlockTimer(profile)

    # ------------------------------------------------------------------
    def firmware(self) -> Iterator[Command]:
        """The embedded program; override in subclasses."""
        raise NotImplementedError
        yield  # pragma: no cover

    def run(self) -> Iterator[Command]:
        return self.firmware()

    # ------------------------------------------------------------------
    # memory command execution (the gate/read/write state machine)
    # ------------------------------------------------------------------
    def _execute_extra(self, cmd: Command) -> Any:
        if isinstance(cmd, (MemRead, MemWrite)):
            return self._execute_mem(cmd)
        return super()._execute_extra(cmd)

    def _execute_mem(self, cmd: Command) -> Any:
        if self.replaying:
            __, gated = self.replay_take("gate")
            if gated:
                result = self.block_on_wait(self.local_time)
                if result is BLOCKED:
                    self._pending_mem = cmd
                    return BLOCKED
            # Accesses re-record so the (shared) table's optimistic log is
            # rebuilt for the run-ahead window being replayed.
            self.memory.record_access(cmd.addr, self.local_time, cmd.width)
            if isinstance(cmd, MemRead):
                return self.replay_take("memread")[1]
            return None
        gated = self.memory.needs_sync(cmd.addr, cmd.width) \
            and self.subsystem is not None \
            and self.subsystem.scheduler.now < self.local_time
        self.log_append("gate", gated)
        if gated:
            result = self.block_on_wait(self.local_time)
            assert result is BLOCKED      # live waits always block
            self._pending_mem = cmd
            return BLOCKED
        return self._finish_mem(cmd)

    def _finish_mem(self, cmd: Command) -> Any:
        self.memory.record_access(cmd.addr, self.local_time, cmd.width)
        if isinstance(cmd, MemRead):
            value = self.memory.read(cmd.addr, cmd.width)
            self.log_append("memread", value)
            return value
        self.memory.write(cmd.addr, cmd.value, cmd.width)
        return None

    def _engine(self, resume_value: Any) -> None:
        # A wake that completes a gated memory access must hand the
        # *memory value* to the generator, not the wake time.
        if self._pending_mem is not None and resume_value is not None \
                and not self.replaying:
            cmd = self._pending_mem
            self._pending_mem = None
            resume_value = self._finish_mem(cmd)
        super()._engine(resume_value)

    # ------------------------------------------------------------------
    def snapshot(self):
        snap = super().snapshot()
        snap.extra["pending_mem"] = self._pending_mem
        snap.extra["memory_image"] = (bytes(self.memory.data),
                                      self.memory.reads, self.memory.writes,
                                      self.memory.external_writes)
        return snap

    def restore(self, snap) -> None:
        self._pending_mem = None
        super().restore(snap)
        replayed = self._pending_mem
        expected = snap.extra.get("pending_mem")
        if replayed != expected:
            raise SimulationError(
                f"{self.name}: replay reconstructed pending access "
                f"{replayed!r} but snapshot recorded {expected!r}")
        # Reinstate memory contents in place: other components keep their
        # references to this very object.
        data, reads, writes, external = snap.extra["memory_image"]
        self.memory.data[:] = data
        self.memory.reads = reads
        self.memory.writes = writes
        self.memory.external_writes = external
