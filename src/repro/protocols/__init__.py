"""Communication protocols with multiple detail levels (paper section 2.1.3)."""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("ActionRule", "AssertionCodec", "assertion_level"),
                    ".assertions"),
    **dict.fromkeys(("HEADER_BYTES", "INCOMPLETE", "Protocol", "ProtocolCodec",
                     "WireValue", "reassemble_step"),
                    ".base"),
    **dict.fromkeys(("FixedWidthBusCodec", "TransactionCodec", "bus_protocol"),
                    ".bus"),
    **dict.fromkeys(("DmaBlockCodec", "DmaBurstCodec", "dma_protocol"),
                    ".dma"),
    **dict.fromkeys(("FAST_MODE_HZ", "STANDARD_MODE_HZ", "I2CByteCodec",
                     "I2CHardwareCodec", "i2c_protocol"),
                    ".i2c"),
    **dict.fromkeys(("ProtocolLibrary", "default_library", "standard_library"),
                    ".library"),
    **dict.fromkeys(("PacketCodec", "packet_protocol"), ".packetized"),
})
