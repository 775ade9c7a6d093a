"""Pia: a geographically distributed framework for embedded system design
and validation.

A faithful, from-scratch Python reproduction of Hines & Borriello,
"A Geographically Distributed Framework for Embedded System Design and
Validation", DAC 1998 — the distributed hardware/software co-simulator of
the University of Washington Chinook project.

Package map
-----------
``repro.core``
    The single-host co-simulation kernel: components, ports, nets,
    interfaces, two-level virtual time, checkpoints, run levels.
``repro.protocols``
    The standard communication protocol library with multiple detail
    levels, plus assertion-based user-defined levels.
``repro.distributed``
    Pia nodes, subsystems, channels (conservative and optimistic),
    net splitting, safe-time protocol, Chandy-Lamport snapshots.
``repro.transport``
    The RMI substitute: in-memory and TCP transports with latency models
    and byte accounting.
``repro.processor``
    Embedded-software substrate: basic-block timing, memories with
    synchronous addresses, interrupt controllers, and a tiny ISS.
``repro.hw``
    Hardware in the loop: the stub contract, a simulated Pamette FPGA
    board, and remote hardware servers.
``repro.loader``
    Dynamic component (re)loading, Pia's class-loader analogue.
``repro.tools``
    Customized wrappers connecting external design tools as components.
``repro.debug``
    The debugger (breakpoints, watchpoints, time travel) and VCD
    waveform dumping.
``repro.apps``
    The WubbleU handheld web-browser benchmark from the evaluation.
``repro.bench``
    The experiment harness regenerating every table and figure.
``repro.observability``
    Unified run telemetry: metrics registry, bounded structured trace,
    and the RunReport the benchmarks read their statistics from.

Every package resolves its public names on first use (:func:`_attach`):
importing one loads only the submodules that define what is used.
"""

import importlib
import sys
from typing import Callable, Dict, List, Tuple

__version__ = "1.0.0"


def _attach(package: str, table: Dict[str, str]
            ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                       List[str]]:
    """``(__getattr__, __dir__, __all__)`` of a package namespace that
    resolves its public names on first use.

    A process should load only what it runs: a spawned worker, a probe
    or a one-executor study pays for every module it imports.  So each
    ``repro`` package ``__init__`` declares one table instead of a block
    of re-exports::

        __getattr__, __dir__, __all__ = _attach(__name__, {
            "Simulator": ".simulator",              # simulator.Simulator
            "load_run_control": ".runcontrol:load",  # runcontrol.load
            "core": ".core",                        # the subpackage
        })

    A key is a public name; its value is the module that defines it,
    relative to the package, with ``:attr`` when the name there differs.
    A key equal to the value's last component is that module itself.
    This is PEP 562 in the shape of scientific-python SPEC 1: the first
    lookup imports the one defining module and stores the value in the
    package, so every later ``pkg.Name`` is a plain attribute read and
    ``from pkg import Name`` works exactly as with eager re-exports.
    ``__all__`` is the table's keys.
    """

    def __getattr__(name: str) -> object:
        try:
            target = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        where, __, attr = target.partition(":")
        module = importlib.import_module(where, package)
        if not attr and where.rsplit(".", 1)[-1] == name:
            value = module
        else:
            value = getattr(module, attr or name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)


__getattr__, __dir__, __all__ = _attach(__name__, {
    name: "." + name
    for name in ("core", "protocols", "distributed", "transport",
                 "processor", "hw", "loader", "tools", "debug", "apps",
                 "bench", "observability", "faults")
})
__all__.append("__version__")
