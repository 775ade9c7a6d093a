"""Hardware in the loop: stubs, the simulated Pamette, remote servers."""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("LFSR_TAPS", "adder_bitstream", "lfsr_bitstream",
                     "lfsr_reference", "shift_register_bitstream"),
                    ".circuits"),
    **dict.fromkeys(("HardwareComponent", "HwCall", "HwCallExecutor"),
                    ".component"),
    **dict.fromkeys(("REG_CONTROL", "REG_DATA", "REG_PERIOD", "REG_STATUS",
                     "TimerDevice", "UartDevice"),
                    ".devices"),
    **dict.fromkeys(("LUT_WIDTH", "Bitstream", "Dff", "Lut",
                     "SimulatedPamette", "counter_bitstream"),
                    ".pamette"),
    **dict.fromkeys(("RemoteHardwareClient", "RemoteHardwareServer"),
                    ".server"),
    **dict.fromkeys(("HardwareStub", "InterruptRecord"), ".stub"),
})
