"""ISS + interrupt controller + synchronous addresses, end to end.

The full stack of paper section 2.1.1 exercised through real (tiny-ISA)
instructions: a program polls a memory-mapped mailbox while a device
writes it through the interrupt controller.  Statically marked addresses
force SYNC-like gating of the loads; the optimistic policy detects the
stale read and recovers by dynamic marking and rollback.
"""

import pytest

from repro.core import Advance, FunctionComponent, Send, Simulator, SyncPolicy
from repro.processor import (
    GENERIC,
    InterruptController,
    IssComponent,
    assemble,
)

#: Polls the uart mailbox flag; on each message, accumulates the payload
#: and acknowledges.  Exits after 2 messages.
POLLER = """
    .equ FLAG  0xF00
    .equ DATA  0xF04
    LDI r5, 0          ; messages seen
    LDI r6, 0          ; accumulated payload
poll:
    LD  r1, FLAG(r0)
    BEQ r1, r0, poll
    LD  r2, DATA(r0)
    ADD r6, r6, r2
    ST  r0, FLAG(r0)   ; acknowledge
    ADDI r5, r5, 1
    LDI r7, 2
    BLT r5, r7, poll
    ST  r6, 0x200(r0)
    HALT
"""


def build(policy):
    sim = Simulator()
    marks = range(0xF00, 0xF08) if policy is SyncPolicy.STATIC else ()
    # yield_every bounds the busy-wait's run-ahead (the scheduling quantum
    # a preemptive host would impose); without it, an optimistic ungated
    # poll loop would spin to its fuel limit before any event lands.
    cpu = IssComponent("cpu", assemble(POLLER), profile=GENERIC,
                       sync_policy=policy, synchronous_addresses=marks,
                       fuel=500_000, yield_every=2_000)
    sim.add(cpu)
    controller = InterruptController("ctl", cpu.memory, base_addr=0xF00)
    controller.add_line("uart")
    sim.add(controller)

    def device(comp):
        yield Advance(2e-3)
        yield Send("out", 40)
        yield Advance(3e-3)
        yield Send("out", 2)

    dev = sim.add(FunctionComponent("dev", device, ports={"out": "out"}))
    sim.wire("irq", dev.port("out"), controller.port("uart"))
    return sim, cpu, controller


class TestStaticMarks:
    def test_polling_loop_sees_both_messages(self):
        sim, cpu, controller = build(SyncPolicy.STATIC)
        sim.run()
        assert cpu.halted
        assert cpu.memory.read(0x200) == 42
        assert controller.delivered == 2
        assert controller.dropped == 0

    def test_loads_were_gated(self):
        sim, cpu, controller = build(SyncPolicy.STATIC)
        sim.run()
        gates = sum(1 for kind, flag in cpu._log
                    if kind == "gate" and flag)
        assert gates > 0


class TestOptimisticRecovery:
    def test_violation_detected_and_recovered(self):
        """Unmarked, the poller spins ahead of system time reading stale
        flags; the device write at t=2ms violates and the simulator
        rewinds with the flag address dynamically marked."""
        sim, cpu, controller = build(SyncPolicy.OPTIMISTIC)
        sim.run_with_recovery(sync_tables=[cpu.sync_table])
        assert sim.recoveries >= 1
        assert cpu.sync_table.dynamic_marks
        assert cpu.memory.read(0x200) == 42

    def test_matches_static_result(self):
        sim_s, cpu_s, __ = build(SyncPolicy.STATIC)
        sim_s.run()
        sim_o, cpu_o, __ = build(SyncPolicy.OPTIMISTIC)
        sim_o.run_with_recovery(sync_tables=[cpu_o.sync_table])
        assert cpu_o.memory.read(0x200) == cpu_s.memory.read(0x200)
        assert cpu_o.regs[6] == cpu_s.regs[6]
