#!/usr/bin/env python3
"""Debugging a simulation and a co-simulation: breakpoints, time travel,
and waveforms.

The paper lists a debugger as current work (section 5) and asks for
"debugging support ... for the parts in simulation, as well as the system
as a whole" (section 1).  One debugger serves both.  This example first
drives the quickstart-style sensor/logger system on one host under the
debugger — halting on a net value, inspecting state, rewinding — while a
VCD tracer captures the waveform (open ``waves.vcd`` in GTKWave: the
``sensor.localtime`` real trace visibly runs ahead of the signal events,
the two-level time model on screen).  Then the same debugger calls drive
the split WubbleU co-simulation, two nodes joined by a channel, rewinding
through a Chandy-Lamport snapshot.

Run:  python examples/debug_and_waves.py
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

from repro.apps import WubbleUConfig, build_split
from repro.core import (
    Advance,
    FunctionComponent,
    Receive,
    Send,
    Simulator,
    WaitUntil,
)
from repro.debug import Debugger, VcdTracer


def debug_simulation():
    sim = Simulator("debug-demo")

    def sensor(comp):
        for index in range(16):
            yield WaitUntil(comp.local_time + 1e-3)
            yield Advance(120e-6)                 # conversion time
            yield Send("out", (index * 37) % 100)

    def logger(comp):
        comp.seen = []
        while True:
            t, value = yield Receive("in")
            comp.seen.append(value)

    sensor_c = sim.add(FunctionComponent("sensor", sensor,
                                         ports={"out": "out"}))
    logger_c = sim.add(FunctionComponent("logger", logger,
                                         ports={"in": "in"}))
    net = sim.wire("adc", sensor_c.port("out"), logger_c.port("in"))

    tracer = VcdTracer(timescale="1 us")
    tracer.trace_net(net, width=8)
    tracer.trace_local_time(sensor_c)

    debugger = Debugger(sim)
    debugger.trace(limit=200)
    debugger.watch("adc")
    debugger.break_on_signal("adc", value=85)     # (5*37)%100

    reason = debugger.run()
    print(f"stopped: {reason}")
    print(debugger.where())
    print(f"logger has seen: {debugger.inspect('logger')['seen']}")

    snap = sim.checkpoint("at-85")
    debugger.run()
    print(f"\nran to completion: {len(logger_c.seen)} samples")
    print(f"rewinding to t={debugger.rewind(snap) * 1e3:g} ms ...")
    print(f"logger now: {debugger.inspect('logger')['seen']}")
    debugger.run()
    print(f"replayed: {len(logger_c.seen)} samples "
          f"(watch log holds {len(debugger.watch_log)} changes)")

    path = tracer.write("waves.vcd")
    print(f"\nwaveform with {tracer.change_count()} changes -> {path}")
    print("last trace lines:")
    for line in debugger.backtrace(4):
        print(f"  {line}")


def debug_cosimulation():
    cosim, __, ___ = build_split(WubbleUConfig(
        level="packet", total_bytes=12_000, image_count=2, image_size=48))
    ui = cosim.component("UI")

    debugger = Debugger(cosim)
    debugger.trace(limit=200)
    debugger.watch("netirq")              # split net: both halves logged
    debugger.break_on_signal("netirq")    # the modem's first interrupt

    reason = debugger.run()
    print(f"\nstopped: {reason}")
    print(debugger.where())

    snap = cosim.snapshot()
    debugger.run()
    loaded_at = ui.page_loaded_at
    print(f"\nran to completion: page loaded at t={loaded_at:g} s")
    print(f"rewinding to t={debugger.rewind(snap):g} s ...")
    print(f"page loaded after rewind: {ui.page_loaded_at}")
    debugger.run()
    print(f"replayed: page loaded at t={ui.page_loaded_at:g} s "
          f"(watch log holds {len(debugger.watch_log)} changes on "
          f"{sorted({record.net for record in debugger.watch_log})})")
    print("last trace lines (payloads cut short):")
    for line in debugger.backtrace(4):
        print(f"  {line[:96]}")


def main():
    debug_simulation()
    debug_cosimulation()


if __name__ == "__main__":
    main()
