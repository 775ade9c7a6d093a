#!/usr/bin/env python3
"""The standard protocol library: one block moved at every detail level.

Paper section 2.1.3: "We are in the process of building a library of
standard communication protocols, each with several built-in detail
levels."  For every protocol the library ships — the parallel bus (32- and
8-bit), the packetized link, I2C (standard and fast mode) and the DMA
family the WubbleU cellular chip uses (section 4) — a sender component
moves the same 96-byte block to a receiver through an interface at each of
the protocol's levels.  The table shows the detail/time trade: how many
chunks each level puts on the wire, and when the block has arrived.

The last run shows the third way a detail level changes (after the
designer's slider and a switchpoint in the run-control file): a switch
statement in component source.  A DMA sender moves one block in bursts,
then switches both ends of the link to programmed I/O for the next.

Run:  python examples/protocol_library.py
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
    FunctionComponent,
    Interface,
    ReactiveComponent,
    ReceiveTransfer,
    Simulator,
    SwitchLevel,
    Transfer,
)
from repro.protocols import default_library

BLOCK = bytes(range(96))


class BlockSender(ReactiveComponent):
    """Wakes one microsecond in and moves BLOCK through its interface."""

    def on_start(self):
        self.wake_after(1e-6)

    def on_wake(self, time, payload):
        self.transfer("link", BLOCK)


def move_block(protocol, level):
    """Send BLOCK over ``protocol`` at ``level``; (chunks, arrival)."""
    sim = Simulator(f"{protocol.name}-{level}")

    def receiver(comp):
        comp.arrival, comp.block = yield ReceiveTransfer("link")

    tx = BlockSender("tx")
    tx.add_interface(Interface("link", protocol, level=level, out_port="o"))
    rx = FunctionComponent("rx", receiver)
    rx.add_interface(Interface("link", protocol, level=level, in_port="i"))
    sim.add(tx)
    sim.add(rx)
    sim.wire("link", tx.port("o"), rx.port("i"))
    sim.run()
    assert bytes(rx.block) == BLOCK, (protocol.name, level)
    return tx.interface("link").sent_chunks, rx.arrival


def switch_in_source(protocol):
    """Two blocks: DMA bursts, then a switch statement, then words."""
    sim = Simulator("dma-switch")

    def sender(comp):
        yield Transfer("link", BLOCK)
        yield SwitchLevel("word", target="tx.link")
        yield SwitchLevel("word", target="rx.link")
        yield Transfer("link", BLOCK)

    def receiver(comp):
        comp.arrivals = []
        for __ in range(2):
            arrival, __ = yield ReceiveTransfer("link")
            comp.arrivals.append(arrival)

    tx = FunctionComponent("tx", sender)
    tx.add_interface(Interface("link", protocol, out_port="o"))
    rx = FunctionComponent("rx", receiver)
    rx.add_interface(Interface("link", protocol, in_port="i"))
    sim.add(tx)
    sim.add(rx)
    sim.wire("link", tx.port("o"), rx.port("i"))
    sim.run()
    first, second = rx.arrivals
    print(f"dma switched in source: burst block at {first * 1e6:.2f} us, "
          f"then {tx.interface('link').level} level, next block "
          f"{(second - first) * 1e6:.2f} us later")
    assert rx.interface("link").level == "word"


def main():
    library = default_library()
    print(f"{'protocol':<10} {'level':<14} {'chunks':>6} {'arrival':>12}")
    for name in library.names():
        protocol = library.get(name)
        for level in sorted(protocol.levels()):
            chunks, arrival = move_block(protocol, level)
            print(f"{name:<10} {level:<14} {chunks:>6} "
                  f"{arrival * 1e6:>9.2f} us")
    dma = library.get("dma", burst_words=16)
    chunks, arrival = move_block(dma, "burst")
    print(f"dma with 16-word bursts: {chunks} chunks, "
          f"{arrival * 1e6:.2f} us")
    switch_in_source(library.get("dma"))


if __name__ == "__main__":
    main()
