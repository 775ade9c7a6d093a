"""The embedded-software substrate: processors, memory, interrupts, ISS."""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("AssemblyError", "assemble"), ".assembler"),
    **dict.fromkeys(("DATA_OFFSET", "FLAG_OFFSET", "LINE_STRIDE",
                     "InterruptController", "InterruptLine"),
                    ".interrupts"),
    **dict.fromkeys(("NUM_REGS", "OPCODES", "Instruction", "IssComponent",
                     "IssError"),
                    ".isa"),
    "Memory": ".memory",
    **dict.fromkeys(("MemRead", "MemWrite", "SoftwareComponent"), ".software"),
    **dict.fromkeys(("ARM7", "GENERIC", "I960", "PENTIUM_PRO_200", "PROFILES",
                     "BasicBlockTimer", "ProcessorProfile"),
                    ".timing"),
})
