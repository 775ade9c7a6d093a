#!/usr/bin/env python3
"""An instruction-set simulator as a Pia component.

The paper notes a component could be "an instruction set simulator of a
particular processor".  Here a small assembly program runs on the tiny
ISS: it receives sensor words over a port, keeps a running checksum in
memory, and emits the checksum every four samples — co-simulated against a
behavioural sensor model, with per-instruction timing from the i960
profile.

A second firmware polls a memory-mapped mailbox that a device fills
through an interrupt controller (paper section 2.1.1): the controller
latches each interrupt's payload at its virtual time, and marking the
mailbox addresses synchronous up front makes every load of them wait for
simulated time to catch up, so the poll never reads a stale flag.

Run:  python examples/iss_firmware.py
"""

# Self-contained fallback: allow running from a fresh checkout without
# installing the package or exporting PYTHONPATH.
try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    import os
    import sys
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro.core import (
    Advance,
    FunctionComponent,
    Receive,
    Send,
    Simulator,
    SyncPolicy,
)
from repro.processor import I960, InterruptController, IssComponent, assemble

FIRMWARE = """
        .equ SUM   0x100
        .equ COUNT 0x104
start:
        LDI  r5, 0
        ST   r5, SUM(r0)
        ST   r5, COUNT(r0)
loop:
        IN   r1, sensor          ; blocking read from the sensor port
        BEQ  r1, r0, done        ; 0 terminates the stream
        LD   r2, SUM(r0)
        XOR  r2, r2, r1          ; checksum = xor of samples
        SHL  r3, r2, r4          ; fold a little
        ADDI r4, r4, 1
        ANDI r4, r4, 3
        ST   r2, SUM(r0)
        LD   r6, COUNT(r0)
        ADDI r6, r6, 1
        ST   r6, COUNT(r0)
        ANDI r7, r6, 3
        BNE  r7, r0, loop
        OUT  r2, result          ; every 4th sample: report checksum
        JMP  loop
done:
        LD   r2, SUM(r0)
        OUT  r2, result
        HALT
"""

SAMPLES = [0x11, 0x22, 0x33, 0x44, 0xA5, 0x5A, 0x0F, 0xF0, 0]

#: Polls the ``uart`` line's mailbox (flag word, then data word), adds up
#: two payloads, acknowledges each, and stores the total at 0x200.
POLLER = """
        .equ FLAG  0xF00
        .equ DATA  0xF04
        LDI  r5, 0
        LDI  r6, 0
poll:
        LD   r1, FLAG(r0)
        BEQ  r1, r0, poll
        LD   r2, DATA(r0)
        ADD  r6, r6, r2
        ST   r0, FLAG(r0)        ; acknowledge
        ADDI r5, r5, 1
        LDI  r7, 2
        BLT  r5, r7, poll
        ST   r6, 0x200(r0)
        HALT
"""


def main():
    sim = Simulator("iss-demo")
    cpu = IssComponent("cpu", assemble(FIRMWARE), profile=I960,
                       ports={"sensor": "in", "result": "out"})

    def sensor(comp):
        for sample in SAMPLES:
            yield Advance(100e-6)          # a sample every 100 us
            yield Send("out", sample)

    def console(comp):
        comp.reports = []
        while True:
            t, value = yield Receive("in")
            comp.reports.append((round(t * 1e6, 1), hex(value)))

    feed = FunctionComponent("sensor", sensor, ports={"out": "out"})
    out = FunctionComponent("console", console, ports={"in": "in"})
    sim.add(cpu)
    sim.add(feed)
    sim.add(out)
    sim.wire("sense", feed.port("out"), cpu.port("sensor"))
    sim.wire("report", cpu.port("result"), out.port("in"))

    sim.run()

    print(f"program: {len(assemble(FIRMWARE))} instructions")
    print(f"executed {cpu.instret} instructions "
          f"in {cpu.local_time * 1e6:.1f} us of virtual time "
          f"({cpu.timer.total_cycles} cycles @ {I960.clock_hz / 1e6:g} MHz)")
    expected = 0
    for sample in SAMPLES[:-1]:
        expected ^= sample
    print(f"checksum reports (t_us, value): {out.reports}")
    print(f"final checksum 0x{cpu.memory.read(0x100):x} "
          f"(expected 0x{expected:x})")
    assert cpu.memory.read(0x100) == expected
    assert cpu.memory.read(0x104) == len(SAMPLES) - 1
    mailboxes()


def mailboxes():
    sim = Simulator("mailbox-demo")
    # yield_every bounds the busy-wait's run-ahead, the quantum a
    # preemptive host would impose on a polling loop.
    cpu = IssComponent("cpu", assemble(POLLER), profile=I960,
                       sync_policy=SyncPolicy.STATIC, fuel=500_000,
                       yield_every=2_000)
    controller = InterruptController("pic", cpu.memory, base_addr=0xF00)
    line = controller.add_line("uart")
    controller.mark_mailboxes_synchronous()

    def device(comp):
        yield Advance(2e-3)
        yield Send("out", 40)
        yield Advance(3e-3)
        yield Send("out", 2)

    dev = FunctionComponent("uart-dev", device, ports={"out": "out"})
    for component in (cpu, controller, dev):
        sim.add(component)
    sim.wire("irq", dev.port("out"), controller.port("uart"))
    sim.run()
    report = sim.report()
    print(f"mailbox: line {line.name!r} flag at {line.flag_addr:#x}, data at "
          f"{line.data_addr:#x}; {controller.delivered} interrupts "
          f"delivered, firmware total {cpu.memory.read(0x200)} "
          f"at {cpu.local_time * 1e3:.3f} ms "
          f"({report.subsystems[0]['dispatched']} events)")
    assert cpu.halted and cpu.memory.read(0x200) == 42


if __name__ == "__main__":
    main()
