"""Debugging support (paper sections 1 and 5): one debugger for a
single-host Simulator or a whole CoSimulation — breakpoints, watchpoints,
single-stepping, time travel — and VCD waveform dumping."""

from .debugger import (
    Breakpoint,
    BreakReason,
    Debugger,
    DebuggerError,
    WatchRecord,
)
from .vcd import VcdError, VcdTracer

__all__ = [
    "BreakReason", "Breakpoint", "Debugger", "DebuggerError", "VcdError",
    "VcdTracer", "WatchRecord",
]
