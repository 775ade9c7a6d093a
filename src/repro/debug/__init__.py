"""Debugging support (paper sections 1 and 5): one debugger for a
single-host Simulator or a whole CoSimulation — breakpoints, watchpoints,
single-stepping, time travel — and VCD waveform dumping."""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("Breakpoint", "BreakReason", "Debugger", "DebuggerError",
                     "WatchRecord"),
                    ".debugger"),
    **dict.fromkeys(("VcdError", "VcdTracer"), ".vcd"),
})
