"""The tiny ISS and its assembler."""

import pytest

from repro.core import Advance, FunctionComponent, Receive, Send, Simulator
from repro.processor import (
    GENERIC,
    AssemblyError,
    Instruction,
    IssComponent,
    IssError,
    assemble,
)


def run_program(source, *, setup=None, fuel=100_000, profile=GENERIC):
    sim = Simulator()
    cpu = IssComponent("cpu", assemble(source), profile=profile, fuel=fuel)
    if setup is not None:
        setup(cpu)
    sim.add(cpu)
    sim.run()
    return sim, cpu


class TestAssembler:
    def test_labels_and_comments(self):
        program = assemble("""
        ; a loop
        .equ LIMIT 3
        start:  LDI r1, 0
        loop:   ADDI r1, r1, 1
                LDI r2, LIMIT
                BNE r1, r2, loop   # back edge
                HALT
        """)
        assert program[2].args == (2, 3)        # .equ LIMIT
        assert program[3].op == "BNE"
        assert program[3].args == (1, 2, 1)

    def test_memory_operand_forms(self):
        program = assemble("LD r1, 8(r2)\nST r1, (r3)\n")
        assert program[0].args == (1, 8, 2)
        assert program[1].args == (1, 0, 3)

    def test_char_and_hex_immediates(self):
        program = assemble("LDI r1, 'A'\nLDI r2, 0x10\nLDI r3, -5\n")
        assert [i.args[1] for i in program] == [65, 16, -5]

    @pytest.mark.parametrize("bad", [
        "FROB r1, r2",               # unknown opcode
        "ADD r1, r2",                # wrong arity
        "LDI r99, 0",                # no such register
        "LDI r1, nolabel",           # unknown symbol
        "x: NOP\nx: NOP",            # duplicate label
        ".equ A",                    # malformed directive
        ".weird 1",                  # unknown directive
        "LD r1, r2",                 # bad memory operand
    ])
    def test_errors(self, bad):
        with pytest.raises(AssemblyError):
            assemble(bad)


class TestExecution:
    def test_arithmetic(self):
        __, cpu = run_program("""
            LDI r1, 6
            LDI r2, 7
            MUL r3, r1, r2
            ADDI r4, r3, 58
            SUB r5, r4, r1
            HALT
        """)
        assert cpu.regs[3] == 42
        assert cpu.regs[4] == 100
        assert cpu.regs[5] == 94

    def test_r0_hardwired_zero(self):
        __, cpu = run_program("LDI r0, 99\nADD r1, r0, r0\nHALT\n")
        assert cpu.regs[0] == 0
        assert cpu.regs[1] == 0

    def test_signed_comparisons(self):
        __, cpu = run_program("""
            LDI r1, -3
            LDI r2, 2
            SLT r3, r1, r2     ; -3 < 2
            SLT r4, r2, r1
            HALT
        """)
        assert cpu.regs[3] == 1
        assert cpu.regs[4] == 0

    def test_loop_sums_memory(self):
        def setup(cpu):
            for i in range(10):
                cpu.memory.write(0x100 + 4 * i, i + 1)

        __, cpu = run_program("""
            .equ BUF 0x100
            LDI r1, 0          ; sum
            LDI r2, BUF        ; pointer
            LDI r3, 10         ; count
        loop:
            LD  r4, (r2)
            ADD r1, r1, r4
            ADDI r2, r2, 4
            ADDI r3, r3, -1
            BNE r3, r0, loop
            ST  r1, 0x200(r0)
            HALT
        """, setup=setup)
        assert cpu.regs[1] == 55
        assert cpu.memory.read(0x200) == 55

    def test_subroutine_call(self):
        __, cpu = run_program("""
            LDI r1, 20
            JAL r15, double
            JAL r15, double
            HALT
        double:
            ADD r1, r1, r1
            JR r15
        """)
        assert cpu.regs[1] == 80

    def test_byte_ops(self):
        __, cpu = run_program("""
            LDI r1, 0x1FF
            STB r1, 0x50(r0)
            LDB r2, 0x50(r0)
            HALT
        """)
        assert cpu.regs[2] == 0xFF

    def test_division_by_zero_traps(self):
        with pytest.raises(IssError):
            run_program("LDI r1, 4\nDIV r2, r1, r0\nHALT\n")

    def test_fuel_limit(self):
        with pytest.raises(IssError):
            run_program("loop: JMP loop\n", fuel=100)

    def test_instruction_timing(self):
        """GENERIC: 1 MHz, alu=1 load=2 store=2 branch variants etc."""
        __, cpu = run_program("""
            LDI r1, 1
            LDI r2, 2
            ADD r3, r1, r2
            HALT
        """)
        # 4 instructions, all timing class alu/nop at 1 cycle each
        assert cpu.local_time == pytest.approx(4e-6)
        assert cpu.instret == 4


class TestIO:
    def test_in_out_wired_to_ports(self):
        sim = Simulator()
        program = assemble("""
        loop:
            IN   r1, rx
            BEQ  r1, r0, done
            MUL  r2, r1, r1
            OUT  r2, tx
            JMP  loop
        done:
            HALT
        """)
        cpu = IssComponent("cpu", program,
                           ports={"rx": "in", "tx": "out"})
        got = []

        def feeder(comp):
            for v in [3, 5, 0]:
                yield Advance(1e-3)
                yield Send("out", v)

        def collector(comp):
            while True:
                t, v = yield Receive("in")
                got.append(v)

        feed = FunctionComponent("feed", feeder, ports={"out": "out"})
        coll = FunctionComponent("coll", collector, ports={"in": "in"})
        sim.add(cpu)
        sim.add(feed)
        sim.add(coll)
        sim.wire("rxw", feed.port("out"), cpu.port("rx"))
        sim.wire("txw", cpu.port("tx"), coll.port("in"))
        sim.run()
        assert got == [9, 25]
        assert cpu.halted

    def test_in_rejects_non_integer(self):
        sim = Simulator()
        cpu = IssComponent("cpu", assemble("IN r1, rx\nHALT\n"),
                           ports={"rx": "in"})

        def feeder(comp):
            yield Send("out", "not an int")

        feed = FunctionComponent("feed", feeder, ports={"out": "out"})
        sim.add(cpu)
        sim.add(feed)
        sim.wire("w", feed.port("out"), cpu.port("rx"))
        with pytest.raises(IssError):
            sim.run()


class TestIssCheckpointing:
    def test_restore_mid_program(self):
        sim = Simulator()
        program = assemble("""
        loop:
            IN   r1, rx
            ADD  r2, r2, r1
            OUT  r2, tx
            JMP  loop
        """)
        cpu = IssComponent("cpu", program, ports={"rx": "in", "tx": "out"})

        def feeder(comp):
            for v in [1, 2, 3, 4]:
                yield Advance(1.0)
                yield Send("out", v)

        def collector(comp):
            comp.got = []
            while True:
                t, v = yield Receive("in")
                comp.got.append(v)

        feed = FunctionComponent("feed", feeder, ports={"out": "out"})
        coll = FunctionComponent("coll", collector, ports={"in": "in"})
        sim.add(cpu)
        sim.add(feed)
        sim.add(coll)
        sim.wire("rxw", feed.port("out"), cpu.port("rx"))
        sim.wire("txw", cpu.port("tx"), coll.port("in"))
        sim.run(until=2.5)
        cid = sim.checkpoint()
        regs_at_ckpt = list(cpu.regs)
        sim.run()
        assert coll.got == [1, 3, 6, 10]
        sim.restore(cid)
        assert cpu.regs == regs_at_ckpt
        sim.run()
        assert coll.got == [1, 3, 6, 10]
