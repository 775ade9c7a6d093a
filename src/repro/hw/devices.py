"""Ready-made hardware devices behind the stub contract.

These are plain-Python behavioural models — the kind of device a designer
would patch into a simulated circuit for evaluation, like the web-hosted
i960 of the paper's Intel example.  For gate-level hardware see
:mod:`repro.hw.pamette`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from ..core.errors import HardwareStubError
from .stub import HardwareStub, InterruptRecord

#: Register map shared by the simple devices.
REG_CONTROL = 0x0
REG_STATUS = 0x4
REG_DATA = 0x8
REG_PERIOD = 0xC


class TimerDevice(HardwareStub):
    """A programmable interval timer: raises ``timer`` every PERIOD ticks."""

    supports_state_save = True

    def __init__(self, *, clock_hz: float = 1e6, period: int = 1000) -> None:
        if period < 1:
            raise HardwareStubError(f"period must be >= 1, got {period}")
        self.clock_hz = clock_hz
        self._tick = 0
        self._stalled = False
        self._enabled = False
        self._period = period
        self._countdown = period
        self._fired = 0

    def read_time(self) -> int:
        return self._tick

    def set_time(self, ticks: int) -> None:
        self._tick = int(ticks)

    def run_for(self, ticks: int) -> List[InterruptRecord]:
        records: List[InterruptRecord] = []
        for __ in range(ticks):
            self._tick += 1
            if self._stalled or not self._enabled:
                continue
            self._countdown -= 1
            if self._countdown == 0:
                self._fired += 1
                records.append(InterruptRecord(self._tick, "timer",
                                               self._fired))
                self._countdown = self._period
        return records

    def stall(self) -> None:
        self._stalled = True

    def resume(self) -> None:
        self._stalled = False

    def save_state(self):
        return (self._tick, self._stalled, self._enabled, self._period,
                self._countdown, self._fired)

    def restore_state(self, state) -> None:
        (self._tick, self._stalled, self._enabled, self._period,
         self._countdown, self._fired) = state

    def peek(self, addr: int) -> int:
        if addr == REG_CONTROL:
            return int(self._enabled)
        if addr == REG_STATUS:
            return self._fired
        if addr == REG_PERIOD:
            return self._period
        raise HardwareStubError(f"timer: no register at {addr:#x}")

    def poke(self, addr: int, value: int) -> None:
        if addr == REG_CONTROL:
            self._enabled = bool(value & 1)
        elif addr == REG_PERIOD:
            if value < 1:
                raise HardwareStubError(f"bad period {value}")
            self._period = value
            self._countdown = value
        else:
            raise HardwareStubError(f"timer: no writable register {addr:#x}")


class UartDevice(HardwareStub):
    """A byte pipe with transmission delay: poke DATA to send, interrupt
    ``rx`` signals a received byte ready in DATA.

    ``loopback`` wires TX to RX — enough to model the far end for
    protocol bring-up.  Bytes share one line: each arrives
    :attr:`byte_ticks` after the one before it, or after its poke on an
    idle line.
    """

    BITS_PER_BYTE = 10       # start + 8 data + stop

    supports_state_save = True

    def __init__(self, *, clock_hz: float = 1e6, divisor: int = 8,
                 loopback: bool = True) -> None:
        if divisor < 1:
            raise HardwareStubError(f"divisor must be >= 1, got {divisor}")
        self.clock_hz = clock_hz
        self.divisor = divisor
        self.loopback = loopback
        self._tick = 0
        self._stalled = False
        #: (due_tick, byte) in flight.
        self._in_flight: Deque = deque()
        self._rx_fifo: Deque[int] = deque()
        self.tx_count = 0
        self.rx_count = 0

    @property
    def byte_ticks(self) -> int:
        return self.BITS_PER_BYTE * self.divisor

    def read_time(self) -> int:
        return self._tick

    def set_time(self, ticks: int) -> None:
        self._tick = int(ticks)

    def run_for(self, ticks: int) -> List[InterruptRecord]:
        records: List[InterruptRecord] = []
        end = self._tick + ticks
        while self._tick < end:
            self._tick += 1
            if self._stalled:
                continue
            while self._in_flight and self._in_flight[0][0] <= self._tick:
                __, byte = self._in_flight.popleft()
                if self.loopback:
                    self._rx_fifo.append(byte)
                    self.rx_count += 1
                    records.append(InterruptRecord(self._tick, "rx", byte))
        return records

    def stall(self) -> None:
        self._stalled = True

    def resume(self) -> None:
        self._stalled = False

    def save_state(self):
        return (self._tick, self._stalled, tuple(self._in_flight),
                tuple(self._rx_fifo), self.tx_count, self.rx_count)

    def restore_state(self, state) -> None:
        (self._tick, self._stalled, in_flight, rx, self.tx_count,
         self.rx_count) = state
        self._in_flight = deque(in_flight)
        self._rx_fifo = deque(rx)

    def peek(self, addr: int) -> int:
        if addr == REG_STATUS:
            return len(self._rx_fifo)
        if addr == REG_DATA:
            if not self._rx_fifo:
                raise HardwareStubError("uart: RX fifo empty")
            return self._rx_fifo.popleft()
        raise HardwareStubError(f"uart: no register at {addr:#x}")

    def poke(self, addr: int, value: int) -> None:
        if addr != REG_DATA:
            raise HardwareStubError(f"uart: no writable register {addr:#x}")
        self.tx_count += 1
        # One line: a byte starts once the one before it has gone out.
        start = self._tick
        if self._in_flight:
            start = max(start, self._in_flight[-1][0])
        self._in_flight.append((start + self.byte_ticks, value & 0xFF))
