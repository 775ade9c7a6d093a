"""Larger ISS programs: real algorithms under per-instruction timing."""

import pytest

from repro.core import Advance, FunctionComponent, Receive, Send, Simulator
from repro.processor import ARM7, GENERIC, I960, IssComponent, assemble


def run(source, *, setup=None, profile=GENERIC, fuel=500_000):
    sim = Simulator()
    cpu = IssComponent("cpu", assemble(source), profile=profile, fuel=fuel)
    if setup:
        setup(cpu)
    sim.add(cpu)
    sim.run()
    return cpu


FIB = """
    ; r1 = fib(r2) iteratively
    LDI r2, 20
    LDI r3, 0      ; a
    LDI r1, 1      ; b
loop:
    BEQ r2, r0, done
    ADD r4, r3, r1
    MOV r3, r1
    MOV r1, r4
    ADDI r2, r2, -1
    JMP loop
done:
    HALT
"""


BUBBLE_SORT = """
    .equ BUF 0x100
    .equ N 8
    LDI r1, N
    ADDI r1, r1, -1      ; outer = N-1
outer:
    BEQ r1, r0, done
    LDI r2, 0            ; i = 0
    LDI r3, BUF
inner:
    BEQ r2, r1, outer_next
    LD  r4, (r3)
    LD  r5, 4(r3)
    SLT r6, r5, r4       ; r5 < r4 ? swap
    BEQ r6, r0, no_swap
    ST  r5, (r3)
    ST  r4, 4(r3)
no_swap:
    ADDI r3, r3, 4
    ADDI r2, r2, 1
    JMP inner
outer_next:
    ADDI r1, r1, -1
    JMP outer
done:
    HALT
"""


GCD = """
    ; r1 = gcd(r1, r2) by remainders
loop:
    BEQ r2, r0, done
    REM r3, r1, r2
    MOV r1, r2
    MOV r2, r3
    JMP loop
done:
    HALT
"""


class TestAlgorithms:
    def test_fibonacci(self):
        cpu = run(FIB)
        assert cpu.regs[1] == 10946        # fib(21)

    def test_bubble_sort(self):
        data = [42, 7, 99, 1, 56, 23, 88, 15]

        def setup(cpu):
            for index, value in enumerate(data):
                cpu.memory.write(0x100 + 4 * index, value)

        cpu = run(BUBBLE_SORT, setup=setup)
        result = [cpu.memory.read(0x100 + 4 * i) for i in range(8)]
        assert result == sorted(data)

    def test_gcd(self):
        cpu = run("LDI r1, 252\nLDI r2, 105\n" + GCD)
        assert cpu.regs[1] == 21

    def test_profiles_change_time_not_results(self):
        fast = run(FIB, profile=GENERIC)
        slow = run(FIB, profile=ARM7)
        i960 = run(FIB, profile=I960)
        assert fast.regs[1] == slow.regs[1] == i960.regs[1]
        assert fast.instret == slow.instret == i960.instret
        # ARM7 at 25 MHz is slower per cycle than GENERIC at 1 MHz? No —
        # GENERIC is 1 MHz with 1-cycle ops; ARM7 is 25 MHz with multi-
        # cycle branches: virtual times must simply differ and be > 0.
        assert fast.local_time > 0
        assert fast.local_time != slow.local_time


class TestIoIntegration:
    def test_stream_processing_program(self):
        """A moving-average filter: reads samples, emits the mean of the
        last 4, demonstrating ISS + port co-simulation."""
        source = """
            LDI r10, 0       ; running sum
            LDI r11, 0       ; count
        loop:
            IN   r1, rx
            BEQ  r1, r0, done
            ADD  r10, r10, r1
            ADDI r11, r11, 1
            ANDI r12, r11, 3
            BNE  r12, r0, loop
            LDI  r13, 4
            DIV  r2, r10, r13
            OUT  r2, tx
            LDI  r10, 0
            JMP  loop
        done:
            HALT
        """
        sim = Simulator()
        cpu = IssComponent("cpu", assemble(source),
                           ports={"rx": "in", "tx": "out"})
        samples = [4, 8, 12, 16, 20, 20, 20, 20, 0]

        def feeder(comp):
            for sample in samples:
                yield Advance(1e-4)
                yield Send("out", sample)

        def collector(comp):
            comp.means = []
            while True:
                t, value = yield Receive("in")
                comp.means.append(value)

        feed = FunctionComponent("feed", feeder, ports={"out": "out"})
        coll = FunctionComponent("coll", collector, ports={"in": "in"})
        sim.add(cpu)
        sim.add(feed)
        sim.add(coll)
        sim.wire("rxw", feed.port("out"), cpu.port("rx"))
        sim.wire("txw", cpu.port("tx"), coll.port("in"))
        sim.run()
        assert coll.means == [10, 20]

    def test_two_processors_pipeline(self):
        """Two ISS cores chained: the first doubles, the second adds 1."""
        doubler = assemble("""
        loop:
            IN  r1, rx
            BEQ r1, r0, done
            ADD r1, r1, r1
            OUT r1, tx
            JMP loop
        done:
            LDI r1, 0
            OUT r1, tx
            HALT
        """)
        incr = assemble("""
        loop:
            IN  r1, rx
            BEQ r1, r0, done
            ADDI r1, r1, 1
            OUT r1, tx
            JMP loop
        done:
            HALT
        """)
        sim = Simulator()
        cpu_a = IssComponent("a", doubler, ports={"rx": "in", "tx": "out"})
        cpu_b = IssComponent("b", incr, ports={"rx": "in", "tx": "out"})

        def feeder(comp):
            for value in (3, 5, 0):
                yield Advance(1e-4)
                yield Send("out", value)

        def collector(comp):
            comp.got = []
            while True:
                t, value = yield Receive("in")
                comp.got.append(value)

        feed = FunctionComponent("feed", feeder, ports={"out": "out"})
        coll = FunctionComponent("coll", collector, ports={"in": "in"})
        for component in (cpu_a, cpu_b, feed, coll):
            sim.add(component)
        sim.wire("w1", feed.port("out"), cpu_a.port("rx"))
        sim.wire("w2", cpu_a.port("tx"), cpu_b.port("rx"))
        sim.wire("w3", cpu_b.port("tx"), coll.port("in"))
        sim.run()
        assert coll.got == [7, 11]
        assert cpu_a.halted and cpu_b.finished


class TestIssDistributed:
    def test_iss_across_subsystems(self):
        """An ISS core on one node feeding a collector on another — the
        paper's multiprocessor co-design case with real instructions."""
        from repro.distributed import CoSimulation
        program = assemble("""
            LDI r2, 5
        loop:
            BEQ r2, r0, done
            MUL r3, r2, r2
            OUT r3, tx
            ADDI r2, r2, -1
            JMP loop
        done:
            HALT
        """)
        cosim = CoSimulation()
        ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
        ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")
        cpu = IssComponent("cpu", program, ports={"tx": "out"})

        def collector(comp):
            comp.got = []
            for __ in range(5):
                t, value = yield Receive("in")
                comp.got.append(value)

        coll = FunctionComponent("coll", collector, ports={"in": "in"})
        ss_a.add(cpu)
        ss_b.add(coll)
        channel = cosim.connect(ss_a, ss_b)
        channel.split_net(ss_a.wire("w", cpu.port("tx")),
                          ss_b.wire("w", coll.port("in")))
        cosim.run()
        assert coll.got == [25, 16, 9, 4, 1]
