"""The Pamette's combinational network is evaluated in dependency order."""

from repro.hw import Bitstream, SimulatedPamette
from repro.hw.circuits import adder_bitstream


def declared_backwards():
    """A three-deep chain whose LUTs are declared consumer first."""
    bs = Bitstream("backwards")
    bs.add_input("x")
    bs.buf("y3", "y2")
    bs.not_gate("y2", "y1")
    bs.not_gate("y1", "x")
    return bs


def test_every_lut_follows_its_lut_inputs():
    for bitstream in (adder_bitstream(4), declared_backwards()):
        order = [lut.out for lut in SimulatedPamette(bitstream)._order]
        assert sorted(order) == sorted(lut.out for lut in bitstream.luts)
        for lut in bitstream.luts:
            for name in lut.inputs:
                if name in order:
                    assert order.index(name) < order.index(lut.out)
