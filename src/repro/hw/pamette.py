"""A simulated DEC Pamette: a LUT/flip-flop FPGA board behind the stub.

The paper's hardware-in-the-loop path uses "a DEC Pamette board [4] to
provide the hardware side" with "the software side ... written using the
Pamette control library".  We cannot ship a PCI FPGA board, so this module
implements the closest synthetic equivalent that exercises the same code
path: a cycle-accurate synchronous netlist simulator (4-input LUTs plus
D flip-flops), configured by a :class:`Bitstream`, exposing memory-mapped
input/output registers and buffered interrupt lines through the
:class:`~repro.hw.stub.HardwareStub` contract.

The netlist model is deliberately real EDA machinery: combinational nodes
are levelised topologically (cycles are rejected), flip-flops latch on the
simulated clock edge, and interrupts are rising-edge detections on
designated signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, HardwareStubError
from .stub import HardwareStub, InterruptRecord

#: Number of LUT inputs (classic 4-LUT fabric).
LUT_WIDTH = 4


@dataclass(frozen=True)
class Lut:
    """A combinational lookup table: ``out = truth[inputs as bits]``."""

    out: str
    inputs: Tuple[str, ...]
    truth: int            # 2**len(inputs) bits

    def evaluate(self, values: Dict[str, int]) -> int:
        index = 0
        for bit, name in enumerate(self.inputs):
            index |= (values[name] & 1) << bit
        return (self.truth >> index) & 1


@dataclass(frozen=True)
class Dff:
    """A D flip-flop: ``q`` latches ``d`` on each clock edge."""

    q: str
    d: str
    init: int = 0


class Bitstream:
    """A synthesisable configuration for the simulated Pamette fabric."""

    def __init__(self, name: str = "bitstream") -> None:
        self.name = name
        self.inputs: List[str] = []
        self.luts: List[Lut] = []
        self.dffs: List[Dff] = []
        #: addr -> list of signal names forming a readable register (LSB first)
        self.out_regs: Dict[int, List[str]] = {}
        #: addr -> (register name, width): writable input registers.
        self.in_regs: Dict[int, Tuple[str, int]] = {}
        #: signals whose rising edge raises an interrupt line of that name.
        self.irqs: Dict[str, str] = {}

    # -- construction ----------------------------------------------------
    def add_input(self, name: str) -> str:
        self._fresh(name)
        self.inputs.append(name)
        return name

    def add_input_register(self, addr: int, name: str, width: int) -> List[str]:
        """A pokeable register whose bits appear as signals ``name[i]``."""
        if addr in self.in_regs or addr in self.out_regs:
            raise ConfigurationError(f"{self.name}: register at {addr:#x} exists")
        bits = []
        for i in range(width):
            bit = f"{name}[{i}]"
            self.add_input(bit)
            bits.append(bit)
        self.in_regs[addr] = (name, width)
        return bits

    def add_lut(self, out: str, inputs: Sequence[str], truth: int) -> Lut:
        if len(inputs) > LUT_WIDTH:
            raise ConfigurationError(
                f"{self.name}: LUT {out} has {len(inputs)} inputs "
                f"(max {LUT_WIDTH})")
        self._fresh(out)
        lut = Lut(out, tuple(inputs), truth)
        self.luts.append(lut)
        return lut

    def add_dff(self, q: str, d: str, init: int = 0) -> Dff:
        self._fresh(q)
        dff = Dff(q, d, init & 1)
        self.dffs.append(dff)
        return dff

    def add_output_register(self, addr: int, bits: Sequence[str]) -> None:
        if addr in self.out_regs or addr in self.in_regs:
            raise ConfigurationError(f"{self.name}: register at {addr:#x} exists")
        self.out_regs[addr] = list(bits)

    def add_irq(self, line: str, signal: str) -> None:
        if line in self.irqs:
            raise ConfigurationError(f"{self.name}: duplicate irq {line!r}")
        self.irqs[line] = signal

    def _fresh(self, name: str) -> None:
        if name in self.inputs or any(l.out == name for l in self.luts) \
                or any(f.q == name for f in self.dffs):
            raise ConfigurationError(
                f"{self.name}: signal {name!r} already driven")

    # -- gate-level helpers -----------------------------------------------
    def not_gate(self, out: str, a: str) -> None:
        self.add_lut(out, [a], 0b01)

    def and_gate(self, out: str, a: str, b: str) -> None:
        self.add_lut(out, [a, b], 0b1000)

    def xor_gate(self, out: str, a: str, b: str) -> None:
        self.add_lut(out, [a, b], 0b0110)

    def buf(self, out: str, a: str) -> None:
        self.add_lut(out, [a], 0b10)


class SimulatedPamette(HardwareStub):
    """The board: fabric + clock + registers + interrupt buffering."""

    supports_state_save = True

    def __init__(self, bitstream: Bitstream, *, clock_hz: float = 1e6) -> None:
        if clock_hz <= 0:
            raise ConfigurationError("clock must be > 0")
        self.clock_hz = clock_hz
        self.bitstream = bitstream
        self._tick = 0
        self._stalled = False
        self._pending: List[InterruptRecord] = []
        self._values: Dict[str, int] = {}
        self._irq_last: Dict[str, int] = {}
        self._in_reg_values: Dict[int, int] = {
            addr: 0 for addr in bitstream.in_regs}
        self._order = self._levelise()
        self._reset_state()

    # ------------------------------------------------------------------
    def _levelise(self) -> List[Lut]:
        """Topologically order the combinational network (no comb loops)."""
        by_out = {lut.out: lut for lut in self.bitstream.luts}
        sequential = {dff.q for dff in self.bitstream.dffs}
        known = set(self.bitstream.inputs) | sequential
        sorter = TopologicalSorter()
        for lut in self.bitstream.luts:
            sorter.add(lut.out)
            for name in lut.inputs:
                if name in by_out:
                    sorter.add(lut.out, name)
                elif name not in known:
                    raise ConfigurationError(
                        f"{self.bitstream.name}: LUT {lut.out} reads "
                        f"undriven signal {name!r}")
        try:
            order = list(sorter.static_order())
        except CycleError:
            raise ConfigurationError(
                f"{self.bitstream.name}: combinational loop detected"
            ) from None
        return [by_out[name] for name in order]

    def _reset_state(self) -> None:
        self._values = {name: 0 for name in self.bitstream.inputs}
        for dff in self.bitstream.dffs:
            self._values[dff.q] = dff.init
        self._settle()
        for line, signal in self.bitstream.irqs.items():
            self._irq_last[line] = self._values[signal]

    def _settle(self) -> None:
        for lut in self._order:
            self._values[lut.out] = lut.evaluate(self._values)

    def _clock_edge(self) -> None:
        latched = {dff.q: self._values[dff.d] & 1
                   for dff in self.bitstream.dffs}
        self._values.update(latched)
        self._settle()
        for line, signal in self.bitstream.irqs.items():
            current = self._values[signal]
            if current and not self._irq_last[line]:
                self._pending.append(InterruptRecord(self._tick, line))
            self._irq_last[line] = current

    # ------------------------------------------------------------------
    # HardwareStub contract
    # ------------------------------------------------------------------
    def save_state(self):
        return (self._tick, self._stalled, tuple(self._pending),
                dict(self._values), dict(self._irq_last),
                dict(self._in_reg_values))

    def restore_state(self, state) -> None:
        (self._tick, self._stalled, pending, values, irq_last,
         in_regs) = state
        self._pending = list(pending)
        self._values = dict(values)
        self._irq_last = dict(irq_last)
        self._in_reg_values = dict(in_regs)

    def read_time(self) -> int:
        return self._tick

    def set_time(self, ticks: int) -> None:
        self._tick = int(ticks)

    def run_for(self, ticks: int) -> List[InterruptRecord]:
        if ticks < 0:
            raise HardwareStubError(f"negative tick count {ticks}")
        for __ in range(ticks):
            self._tick += 1
            if not self._stalled:
                self._clock_edge()
        pending, self._pending = self._pending, []
        return pending

    def stall(self) -> None:
        self._stalled = True

    def resume(self) -> None:
        self._stalled = False

    def peek(self, addr: int) -> int:
        bits = self.bitstream.out_regs.get(addr)
        if bits is None:
            if addr in self._in_reg_values:
                return self._in_reg_values[addr]
            raise HardwareStubError(f"no register at {addr:#x}")
        value = 0
        for index, name in enumerate(bits):
            value |= (self._values[name] & 1) << index
        return value

    def poke(self, addr: int, value: int) -> None:
        reg = self.bitstream.in_regs.get(addr)
        if reg is None:
            raise HardwareStubError(f"no writable register at {addr:#x}")
        name, width = reg
        self._in_reg_values[addr] = value & ((1 << width) - 1)
        for i in range(width):
            self._values[f"{name}[{i}]"] = (value >> i) & 1
        self._settle()


def counter_bitstream(bits: int, *, irq_on_wrap: bool = False) -> Bitstream:
    """A ripple-carry counter: the classic first Pamette design.

    Output register at 0x0 holds the count; with ``irq_on_wrap`` the
    carry out of the top bit raises the ``wrap`` interrupt line.
    """
    if bits < 1:
        raise ConfigurationError("counter needs at least 1 bit")
    bs = Bitstream(f"counter{bits}")
    carry = None
    outs = []
    for i in range(bits):
        q = f"q{i}"
        d = f"d{i}"
        if i == 0:
            bs.not_gate(d, q)                       # toggles every cycle
            carry_next = q                          # carry = old bit value
        else:
            assert carry is not None
            bs.xor_gate(d, q, carry)
            carry_next = f"c{i}"
            bs.and_gate(carry_next, q, carry)
        bs.add_dff(q, d)
        outs.append(q)
        carry = carry_next
    bs.add_output_register(0x0, outs)
    if irq_on_wrap:
        assert carry is not None
        bs.add_irq("wrap", carry)
    return bs
