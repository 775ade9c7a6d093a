#!/usr/bin/env python3
"""Hardware in the loop: a gate-level Pamette board served remotely.

A lab node serves a simulated DEC Pamette carrying a 6-bit counter
bitstream with a wrap interrupt.  A design node wraps it into the
co-simulation through the hardware/software stub (read/set time, run-for,
interrupt buffering — paper section 2.3) and a firmware component counts
the wraps.  Because the board implements Pia-aware state save, the whole
run — hardware included — can be checkpointed and rewound.

The same lab server then hosts a bench of devices a board bring-up drives
directly over the hardware-call protocol, each through its own remote
client: an interval timer and a loopback UART (behavioural devices), the
fabricated modem chip of the WubbleU migration story, and three Pamette
designs from the bitstream library (a ripple-carry adder, an LFSR test-
pattern generator and a shift register with a sync-word interrupt).  Every
call of the stub contract crosses the wire: poke, peek, run_for, stall,
resume, save_state and restore_state.

Run:  python examples/hardware_in_the_loop.py
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

from repro.apps.hwmodem import REG_CTRL, REG_LEN, ModemChip
from repro.core import FunctionComponent, Receive
from repro.distributed import CoSimulation
from repro.hw import (
    REG_CONTROL,
    REG_DATA,
    REG_PERIOD,
    REG_STATUS,
    HardwareComponent,
    RemoteHardwareClient,
    RemoteHardwareServer,
    SimulatedPamette,
    TimerDevice,
    UartDevice,
    adder_bitstream,
    counter_bitstream,
    lfsr_bitstream,
    lfsr_reference,
    shift_register_bitstream,
)
from repro.transport import INTERNET


def main():
    cosim = CoSimulation()
    lab = cosim.add_node("lab")
    desk = cosim.add_node("desk")
    cosim.set_link_model("desk", "lab", INTERNET)

    # The lab serves the board: a 6-bit counter at 100 kHz that raises
    # "wrap" every 64 ticks (640 us).
    board = SimulatedPamette(counter_bitstream(6, irq_on_wrap=True),
                             clock_hz=100e3)
    server = RemoteHardwareServer(lab)
    server.attach("counter-board", board)

    # The designer's node patches the web-served board into the circuit.
    ss = cosim.add_subsystem(desk, "bench")
    client = RemoteHardwareClient(desk, "lab", "counter-board")
    print(f"connected to {client.remote_type} @ {client.clock_hz:g} Hz "
          f"(state save: {client.supports_state_save})")

    hw = HardwareComponent("board", client, window=500e-6, lifetime=5e-3,
                           irq_lines=["wrap"])

    def monitor(comp):
        comp.wraps = []
        while True:
            t, __ = yield Receive("in")
            comp.wraps.append(round(t * 1e6))

    mon = FunctionComponent("monitor", monitor, ports={"in": "in"})
    ss.add(hw)
    ss.add(mon)
    ss.wire("irq", hw.port("wrap"), mon.port("in"))

    cosim.run(until=2e-3)
    snapshot = cosim.snapshot()
    print(f"t=2 ms: wraps at {mon.wraps} us; board tick={board.read_time()}")

    cosim.run()
    print(f"t=5 ms: wraps at {mon.wraps} us; board tick={board.read_time()}")

    # Rewind everything — including the hardware.
    cosim.registry.snapshots[snapshot].cuts  # (inspectable)
    cosim.recovery.rollback_to(cosim.registry.snapshots[snapshot])
    print(f"rewound: t={cosim.global_time() * 1e3:g} ms, "
          f"wraps={mon.wraps}, board tick={board.read_time()}")
    cosim.run()
    print(f"replayed to t=5 ms: wraps at {mon.wraps} us")

    report = cosim.transport.accounting.report()
    for src, dst, model, messages, size, delay, __ in report:
        print(f"  link {src}->{dst} [{model}]: {messages} msgs, "
              f"{size} bytes, {delay:.2f} s modelled")

    bring_up(server, desk)


def bring_up(server, desk):
    """Drive a bench of lab devices from the desk, call by call."""
    server.attach("timer", TimerDevice(clock_hz=1e6, period=1000))
    server.attach("uart", UartDevice(clock_hz=1e6, divisor=8))
    server.attach("modem", ModemChip())
    server.attach("adder", SimulatedPamette(adder_bitstream(4)))
    server.attach("lfsr", SimulatedPamette(lfsr_bitstream(5, init=1)))
    server.attach("shift", SimulatedPamette(
        shift_register_bitstream(4, tap_irq=True)))
    print(f"lab bench: {sorted(server.stubs)}")

    def client(name):
        remote = RemoteHardwareClient(desk, "lab", name)
        info = remote.info()
        assert (info["type"], info["clock_hz"]) \
            == (remote.remote_type, remote.clock_hz)
        return remote

    # Interval timer: program, run, stall through a window, rewind.
    timer = client("timer")
    timer.set_time(0)
    timer.poke(REG_PERIOD, 250)
    timer.poke(REG_CONTROL, 1)
    fired = [r.tick for r in timer.run_for(1000)]
    timer.stall()
    assert timer.run_for(500) == []          # clock gated: no interrupts
    timer.resume()
    saved = timer.save_state()
    later = [r.tick for r in timer.run_for(500)]
    timer.restore_state(saved)
    assert [r.tick for r in timer.run_for(500)] == later
    print(f"timer: fired at ticks {fired}, stalled 500, then {later}; "
          f"{timer.peek(REG_STATUS)} interrupts by tick "
          f"{timer.read_time()}, period {timer.peek(REG_PERIOD)}, enabled "
          f"{timer.peek(REG_CONTROL)}")

    # Loopback UART: two bytes out with the line stalled for a while,
    # two rx interrupts, read them back; then rewind the device to
    # before the echo and hear it again.
    uart = client("uart")
    uart.set_time(0)
    for byte in b"Pi":
        uart.poke(REG_DATA, byte)
    uart.stall()
    assert uart.run_for(100) == []
    uart.resume()
    mark, saved = uart.read_time(), uart.save_state()
    received = uart.run_for(200)
    ready = uart.peek(REG_STATUS)
    echoed = bytes(uart.peek(REG_DATA) for __ in range(ready))
    uart.restore_state(saved)
    assert [r.tick for r in uart.run_for(200)] \
        == [r.tick for r in received]
    print(f"uart: rx interrupts at ticks {[r.tick for r in received]}, "
          f"echoed {echoed!r}, heard again after a rewind to tick "
          f"{mark}")
    assert echoed == b"Pi"

    # The modem chip: one frame job, stalled half-way, finished later;
    # rewound to the stall and finished again at the same tick.
    modem = client("modem")
    chip = server.stubs["modem"]
    modem.poke(REG_LEN, 64)
    modem.run_for(100)
    modem.stall()
    modem.run_for(10_000)
    modem.resume()
    saved = modem.save_state()
    done = modem.run_for(1_000)
    modem.restore_state(saved)
    assert modem.run_for(1_000) == done
    print(f"modem: 64-byte frame done at tick {done[0].tick} "
          f"({chip.frame_seconds(64) * 1e6:g} us of chip time, "
          f"{modem.peek(REG_CTRL)} job)")

    # Gate-level designs on the fabric.
    adder = client("adder")
    adder.poke(0x10, 11)
    adder.poke(0x14, 6)
    adder.run_for(1)                          # registered output
    lfsr = client("lfsr")
    lfsr.run_for(1)
    states = []
    for __ in range(6):
        lfsr.run_for(1)
        states.append(lfsr.peek(0x0))
        lfsr.stall()                  # a gated clock holds the pattern
        lfsr.run_for(3)
        lfsr.resume()
    assert states == lfsr_reference(5, 1, 7)[1:]
    shift = client("shift")
    shift.poke(0x10, 1)
    edges = shift.run_for(4)
    print(f"adder: 11 + 6 = {adder.peek(0x0)}; lfsr: {states}; "
          f"shift register: msb edge at tick {edges[0].tick}")
    assert adder.peek(0x0) == 17


if __name__ == "__main__":
    main()
