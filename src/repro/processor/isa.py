"""A tiny load/store instruction-set simulator.

The paper notes "there is no reason that the component can't be an
instruction set simulator of a particular processor, but we have not yet
devoted any effort to ... implementing such components".  This module
implements that future-work component: a 16-register, 32-bit load/store
machine whose ``IN``/``OUT`` instructions are wired to Pia ports, whose
loads and stores run through the synchronous-address machinery, and whose
per-instruction cycle costs come from the processor profile.

Programs are written in the assembly dialect of
:mod:`repro.processor.assembler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..core.errors import SimulationError
from ..core.port import PortDirection
from ..core.process import Command, Receive, Send, Sync
from ..core.sync import SyncPolicy
from .software import MemRead, MemWrite, SoftwareComponent
from .timing import GENERIC, ProcessorProfile

NUM_REGS = 16
WORD_MASK = 0xFFFFFFFF


class IssError(SimulationError):
    """A fault raised by the simulated processor (bad opcode, div by 0)."""


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction; operands are already resolved."""

    op: str
    args: Tuple = ()
    #: source line, for diagnostics
    line: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.op} {', '.join(map(str, self.args))}".strip()


#: opcode -> (operand signature, timing class)
#: signatures: R register, I immediate, A address operand (imm, reg), P port
OPCODES = {
    "ADD": ("RRR", "alu"), "SUB": ("RRR", "alu"), "AND": ("RRR", "alu"),
    "OR": ("RRR", "alu"), "XOR": ("RRR", "alu"), "SHL": ("RRR", "alu"),
    "SHR": ("RRR", "alu"), "SLT": ("RRR", "alu"),
    "MUL": ("RRR", "mul"), "DIV": ("RRR", "div"), "REM": ("RRR", "div"),
    "ADDI": ("RRI", "alu"), "ANDI": ("RRI", "alu"), "ORI": ("RRI", "alu"),
    "SLTI": ("RRI", "alu"),
    "LDI": ("RI", "alu"), "MOV": ("RR", "alu"),
    "LD": ("RA", "load"), "ST": ("RA", "store"),
    "LDB": ("RA", "load"), "STB": ("RA", "store"),
    "BEQ": ("RRI", "branch"), "BNE": ("RRI", "branch"),
    "BLT": ("RRI", "branch"), "BGE": ("RRI", "branch"),
    "JMP": ("I", "branch_taken"), "JAL": ("RI", "call"), "JR": ("R", "ret"),
    "IN": ("RP", "io"), "OUT": ("RP", "io"),
    "SYNC": ("", "sync"), "NOP": ("", "nop"), "HALT": ("", "nop"),
}


def _signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value >= (1 << 31) else value


class IssComponent(SoftwareComponent):
    """A processor component executing an assembled program."""

    def __init__(self, name: str, program: List[Instruction], *,
                 profile: ProcessorProfile = GENERIC,
                 memory_size: int = 64 * 1024,
                 sync_policy: SyncPolicy = SyncPolicy.STATIC,
                 synchronous_addresses=(),
                 ports: Optional[dict] = None,
                 fuel: int = 1_000_000,
                 yield_every: Optional[int] = 25_000) -> None:
        super().__init__(name, profile=profile, memory_size=memory_size,
                         sync_policy=sync_policy,
                         synchronous_addresses=synchronous_addresses)
        # The program is immutable: exclude it from checkpoint images.
        self.program = list(program)
        self._infra_keys.add("program")
        self.fuel = fuel
        #: Scheduling quantum: after this many instructions without a
        #: blocking command, the core synchronises with system time —
        #: bounding the run-ahead of busy-wait loops the way a preemptive
        #: host scheduler would.  ``None`` disables it.
        self.yield_every = yield_every
        self._since_yield = 0
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.halted = False
        self.instret = 0
        for port_name, direction in (ports or {}).items():
            self.add_port(port_name, PortDirection(direction))

    # ------------------------------------------------------------------
    def firmware(self) -> Iterator[Command]:
        while not self.halted:
            if self.instret >= self.fuel:
                raise IssError(
                    f"{self.name}: out of fuel after {self.instret} "
                    "instructions (runaway program?)")
            if not 0 <= self.pc < len(self.program):
                raise IssError(f"{self.name}: pc {self.pc} outside program")
            instr = self.program[self.pc]
            self.instret += 1
            self._since_yield += 1
            if self.yield_every is not None \
                    and self._since_yield >= self.yield_every:
                self._since_yield = 0
                yield Sync()
            yield from self._execute_instr(instr)

    # ------------------------------------------------------------------
    def _execute_instr(self, instr: Instruction) -> Iterator[Command]:
        op = instr.op
        a = instr.args
        next_pc = self.pc + 1
        __, timing = OPCODES[op]

        if op in ("ADD", "SUB", "AND", "OR", "XOR", "SHL", "SHR", "SLT",
                  "MUL", "DIV", "REM"):
            lhs, rhs = self.regs[a[1]], self.regs[a[2]]
            self._set(a[0], self._alu(op, lhs, rhs, instr))
        elif op in ("ADDI", "ANDI", "ORI", "SLTI"):
            base = {"ADDI": "ADD", "ANDI": "AND",
                    "ORI": "OR", "SLTI": "SLT"}[op]
            self._set(a[0], self._alu(base, self.regs[a[1]], a[2], instr))
        elif op == "LDI":
            self._set(a[0], a[1])
        elif op == "MOV":
            self._set(a[0], self.regs[a[1]])
        elif op in ("LD", "LDB"):
            width = 1 if op == "LDB" else 4
            addr = (self.regs[a[2]] + a[1]) & WORD_MASK
            value = yield MemRead(addr, width)
            self._set(a[0], value)
        elif op in ("ST", "STB"):
            width = 1 if op == "STB" else 4
            addr = (self.regs[a[2]] + a[1]) & WORD_MASK
            yield MemWrite(addr, self.regs[a[0]], width)
        elif op in ("BEQ", "BNE", "BLT", "BGE"):
            lhs, rhs = _signed(self.regs[a[0]]), _signed(self.regs[a[1]])
            taken = {"BEQ": lhs == rhs, "BNE": lhs != rhs,
                     "BLT": lhs < rhs, "BGE": lhs >= rhs}[op]
            if taken:
                next_pc = a[2]
                timing = "branch_taken"
        elif op == "JMP":
            next_pc = a[0]
        elif op == "JAL":
            self._set(a[0], self.pc + 1)
            next_pc = a[1]
        elif op == "JR":
            next_pc = self.regs[a[0]]
        elif op == "IN":
            __, value = yield Receive(a[1])
            if not isinstance(value, int):
                raise IssError(
                    f"{self.name}: IN {a[1]} received non-integer {value!r}")
            self._set(a[0], value)
        elif op == "OUT":
            yield Send(a[1], self.regs[a[0]] & WORD_MASK)
        elif op == "SYNC":
            yield Sync()
        elif op == "NOP":
            pass
        elif op == "HALT":
            self.halted = True
        else:  # pragma: no cover - assembler validates opcodes
            raise IssError(f"{self.name}: unknown opcode {op!r}")

        yield self.timer.spin(self.profile.cycles_for(timing))
        self.pc = next_pc

    def _alu(self, op: str, lhs: int, rhs: int, instr: Instruction) -> int:
        if op == "ADD":
            return lhs + rhs
        if op == "SUB":
            return lhs - rhs
        if op == "AND":
            return lhs & rhs
        if op == "OR":
            return lhs | rhs
        if op == "XOR":
            return lhs ^ rhs
        if op == "SHL":
            return lhs << (rhs & 31)
        if op == "SHR":
            return (lhs & WORD_MASK) >> (rhs & 31)
        if op == "SLT":
            return 1 if _signed(lhs) < _signed(rhs) else 0
        if op in ("MUL",):
            return lhs * rhs
        if op in ("DIV", "REM"):
            if rhs == 0:
                raise IssError(
                    f"{self.name}: division by zero at line {instr.line}")
            return lhs // rhs if op == "DIV" else lhs % rhs
        raise IssError(f"bad ALU op {op}")  # pragma: no cover

    def _set(self, reg: int, value: int) -> None:
        if reg != 0:                 # r0 is hardwired to zero
            self.regs[reg] = value & WORD_MASK

    # ------------------------------------------------------------------
