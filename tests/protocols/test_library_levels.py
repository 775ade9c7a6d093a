"""Every level of every library protocol, end to end through interfaces.

The codec laws (tests/protocols/test_protocol_properties.py) hold on a
bare codec.  These runs put each (protocol, level) of the default library
between two components in a simulator and check that the interface pair
adds nothing of its own: the block arrives intact, the sender puts exactly
the codec's wire values on the net, and the block lands at the start time
plus the codec's declared transfer time.
"""

import pytest

from repro.core import (
    FunctionComponent,
    Interface,
    ReactiveComponent,
    ReceiveTransfer,
    Simulator,
)
from repro.protocols import default_library

BLOCK = bytes(range(96))
START = 1e-6


def _cases():
    library = default_library()
    cases = [(name, {}, level) for name in library.names()
             for level in sorted(library.get(name).levels())]
    # A non-default construction argument travels with the protocol.
    cases += [("dma", {"burst_words": 16}, level)
              for level in sorted(library.get("dma").levels())]
    return cases


def _case_id(case):
    name, kwargs, level = case
    options = "".join(f"-{key}={value}" for key, value in kwargs.items())
    return f"{name}{options}-{level}"


class _BlockSender(ReactiveComponent):
    def on_start(self):
        self.wake_after(START)

    def on_wake(self, time, payload):
        self.transfer("link", BLOCK)


@pytest.mark.parametrize("case", _cases(), ids=_case_id)
def test_an_interface_pair_adds_no_chunks_or_time(case):
    name, kwargs, level = case
    protocol = default_library().get(name, **kwargs)
    codec = protocol.codec(level)
    sim = Simulator(f"{name}-{level}")

    def receiver(comp):
        comp.arrival, comp.block = yield ReceiveTransfer("link")

    tx = _BlockSender("tx")
    tx.add_interface(Interface("link", protocol, level=level, out_port="o"))
    rx = FunctionComponent("rx", receiver)
    rx.add_interface(Interface("link", protocol, level=level, in_port="i"))
    sim.add(tx)
    sim.add(rx)
    sim.wire("link", tx.port("o"), rx.port("i"))
    sim.run()

    assert bytes(rx.block) == BLOCK
    assert tx.interface("link").sent_chunks == \
        len(list(codec.expand(BLOCK, ("t", 1))))
    assert rx.arrival == pytest.approx(START + codec.transfer_time(BLOCK),
                                       rel=1e-9)
    assert not rx.interface("link")._partial
