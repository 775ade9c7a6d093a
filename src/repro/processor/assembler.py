"""A two-pass assembler for the tiny ISS.

Syntax, one instruction per line::

    ; comments run to end of line (# also works)
    .equ BUF 0x100          ; named constants
    start:                  ; labels (own line or before an instruction)
        LDI  r1, 10
        LDI  r2, BUF
    loop:
        ST   r1, 0(r2)      ; memory operands are imm(reg)
        ADDI r1, r1, -1
        BNE  r1, r0, loop
        OUT  r1, result     ; ports are bare identifiers
        HALT

Immediates accept decimal, ``0x`` hex, ``-`` signs, ``'c'`` characters,
``.equ`` constants and (for jumps/branches and LDI) label names.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..core.errors import SimulationError
from .isa import NUM_REGS, OPCODES, Instruction


class AssemblyError(SimulationError):
    """The program text could not be assembled."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


_LABEL_RE = re.compile(r"^([A-Za-z_]\w*):")
_REG_RE = re.compile(r"^[rR](\d+)$")
_MEM_RE = re.compile(r"^(.*)\(\s*[rR](\d+)\s*\)$")
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")


def _strip(line: str) -> str:
    for marker in (";", "#"):
        cut = line.find(marker)
        if cut != -1:
            line = line[:cut]
    return line.strip()


def _split_operands(text: str) -> List[str]:
    return [part.strip() for part in text.split(",")] if text else []


class _Pass:
    def __init__(self, source: str) -> None:
        self.labels: Dict[str, int] = {}
        self.constants: Dict[str, int] = {}
        #: (line number, opcode, operand strings)
        self.pending: List[Tuple[int, str, List[str]]] = []
        self._scan(source)

    def _scan(self, source: str) -> None:
        index = 0
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = _strip(raw)
            if not line:
                continue
            while True:
                match = _LABEL_RE.match(line)
                if match is None:
                    break
                label = match.group(1)
                if label in self.labels:
                    raise AssemblyError(f"duplicate label {label!r}", lineno)
                self.labels[label] = index
                line = line[match.end():].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            op = parts[0].upper()
            operands = _split_operands(parts[1] if len(parts) > 1 else "")
            if op == ".EQU":
                if len(operands) == 1:
                    operands = parts[1].split()
                if len(operands) != 2:
                    raise AssemblyError(".equ needs NAME VALUE", lineno)
                self.constants[operands[0]] = self._number(operands[1], lineno)
                continue
            if op.startswith("."):
                raise AssemblyError(f"unknown directive {op!r}", lineno)
            if op not in OPCODES:
                raise AssemblyError(f"unknown opcode {op!r}", lineno)
            self.pending.append((lineno, op, operands))
            index += 1

    # ------------------------------------------------------------------
    def _number(self, text: str, lineno: int) -> int:
        text = text.strip()
        if len(text) == 3 and text[0] == text[2] == "'":
            return ord(text[1])
        if text in self.constants:
            return self.constants[text]
        try:
            return int(text, 0)
        except ValueError:
            raise AssemblyError(f"bad number {text!r}", lineno) from None

    def _immediate(self, text: str, lineno: int) -> int:
        if _IDENT_RE.match(text):
            if text in self.labels:
                return self.labels[text]
            if text in self.constants:
                return self.constants[text]
            raise AssemblyError(f"unknown symbol {text!r}", lineno)
        return self._number(text, lineno)

    def _register(self, text: str, lineno: int) -> int:
        match = _REG_RE.match(text)
        if match is None:
            raise AssemblyError(f"expected register, got {text!r}", lineno)
        reg = int(match.group(1))
        if not 0 <= reg < NUM_REGS:
            raise AssemblyError(f"no register r{reg}", lineno)
        return reg

    def _port(self, text: str, lineno: int) -> str:
        if not _IDENT_RE.match(text):
            raise AssemblyError(f"bad port name {text!r}", lineno)
        return text

    def resolve(self) -> List[Instruction]:
        program: List[Instruction] = []
        for lineno, op, operands in self.pending:
            signature, __ = OPCODES[op]
            expected = len(signature) - signature.count("A")  # A eats one
            if signature.count("A"):
                expected += 1
            if len(operands) != expected:
                raise AssemblyError(
                    f"{op} takes {expected} operands, got {len(operands)}",
                    lineno)
            args: List = []
            cursor = 0
            for kind in signature:
                text = operands[cursor]
                cursor += 1
                if kind == "R":
                    args.append(self._register(text, lineno))
                elif kind == "I":
                    args.append(self._immediate(text, lineno))
                elif kind == "P":
                    args.append(self._port(text, lineno))
                elif kind == "A":
                    match = _MEM_RE.match(text)
                    if match is None:
                        raise AssemblyError(
                            f"expected imm(reg), got {text!r}", lineno)
                    offset_text = match.group(1).strip() or "0"
                    args.append(self._immediate(offset_text, lineno))
                    args.append(int(match.group(2)))
                else:  # pragma: no cover - signatures are static
                    raise AssemblyError(f"bad signature {kind!r}", lineno)
            program.append(Instruction(op, tuple(args), lineno))
        return program


def assemble(source: str) -> List[Instruction]:
    """Assemble ``source`` into a program for :class:`IssComponent`."""
    return _Pass(source).resolve()
