"""Processor-local memory with synchronous-address semantics (paper 2.1.1).

The memory itself is ordinary little-endian byte storage.  What makes it
Pia-specific is the attached :class:`~repro.core.sync.SyncTable`: loads and
stores of *synchronous* addresses force the owning component to level its
local time with system time first, and — under the optimistic policy —
accesses of unmarked addresses are logged so that a late interrupt-handler
write can be detected as a consistency violation.

The sync table is deliberately **shared, not copied**, when a component is
checkpointed: an address marked synchronous after a violation must stay
marked across the rollback, or re-execution would repeat the violation
forever.
"""

from __future__ import annotations

import copy
from typing import Optional

from ..core.errors import SimulationError
from ..core.sync import SyncPolicy, SyncTable


class Memory:
    """Byte-addressable little-endian memory with a sync table."""

    def __init__(self, size: int, *, sync_table: Optional[SyncTable] = None,
                 fill: int = 0) -> None:
        if size <= 0:
            raise SimulationError(f"memory size must be > 0, got {size}")
        self.size = size
        self.data = bytearray([fill & 0xFF]) * size
        self.table = sync_table if sync_table is not None else SyncTable()
        self.reads = 0
        self.writes = 0
        self.external_writes = 0

    # ------------------------------------------------------------------
    def _check_range(self, addr: int, width: int) -> None:
        if width < 1:
            raise SimulationError(f"access width must be >= 1, got {width}")
        if addr < 0 or addr + width > self.size:
            raise SimulationError(
                f"memory access [{addr:#x}, {addr + width:#x}) outside "
                f"[0, {self.size:#x})")

    def read(self, addr: int, width: int = 4) -> int:
        """Raw read; framework code only — firmware goes through commands."""
        self._check_range(addr, width)
        self.reads += 1
        return int.from_bytes(self.data[addr:addr + width], "little")

    def write(self, addr: int, value: int, width: int = 4) -> None:
        self._check_range(addr, width)
        self.writes += 1
        self.data[addr:addr + width] = (value & ((1 << (8 * width)) - 1)) \
            .to_bytes(width, "little")

    # ------------------------------------------------------------------
    # sync semantics
    # ------------------------------------------------------------------
    def needs_sync(self, addr: int, width: int = 4) -> bool:
        return any(self.table.is_synchronous(a)
                   for a in range(addr, addr + width))

    def record_access(self, addr: int, local_time: float,
                      width: int = 4) -> None:
        for a in range(addr, addr + width):
            self.table.record_access(a, local_time)

    def external_write(self, addr: int, value: int, time: float,
                       width: int = 4) -> None:
        """An asynchronous write (interrupt handler / DMA) at ``time``.

        Raises :class:`~repro.core.errors.ConsistencyViolation` when the
        owning component already consumed a stale value (optimistic
        policy).  The check runs *before* the write so the memory is
        untouched when the simulation rewinds.
        """
        self._check_range(addr, width)
        for a in range(addr, addr + width):
            self.table.check_external_write(a, time)
        self.external_writes += 1
        self.write(addr, value, width)

    # ------------------------------------------------------------------
    def __deepcopy__(self, memo: dict) -> "Memory":
        clone = Memory.__new__(Memory)
        clone.size = self.size
        clone.data = bytearray(self.data)
        clone.table = self.table          # shared by design (see module doc)
        clone.reads = self.reads
        clone.writes = self.writes
        clone.external_writes = self.external_writes
        memo[id(self)] = clone
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Memory {self.size}B {self.table.policy.value}>"
