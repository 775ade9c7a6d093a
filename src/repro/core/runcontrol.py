"""Simulation run-control files (paper section 2.1.3).

"there may be a switchpoint defined in the simulation run control file" —
this module defines that file.  A run-control file collects everything a
designer configures per *run* rather than per *design*: initial run
levels, switchpoints, a checkpoint cadence, detail sliders and the end
time.  The format is line-based with ``[section]`` headers::

    # WubbleU evaluation run
    [runlevels]
    Stack.bus = word
    NetIf.bus = word

    [switchpoints]
    when Stack.localtime >= 0.02: Stack.bus -> packet, NetIf.bus -> packet
    repeat when net.irq == 1: Cpu -> hardwareLevel

    [sliders]
    link = Stack.bus, NetIf.bus : transaction, packet, word

    [checkpoints]
    interval = 0.5

    [run]
    until = 2.0

``apply`` configures an in-process front end — a
:class:`~repro.core.simulator.Simulator` or a cooperative
:class:`~repro.distributed.executor.CoSimulation`, the two that carry
run levels (:class:`~repro.core.runlevel.RunLevels`).  The concurrent
executors (``ThreadedCoSimulation``, ``MultiprocessCoSimulation``) are
refused with a :class:`~repro.core.errors.ConfigurationError`: run
levels are in-process only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import ConfigurationError
from .runlevel import (DetailSlider, RunLevels, Switchpoint,
                       parse_switchpoint)

_SECTIONS = ("runlevels", "switchpoints", "sliders", "checkpoints", "run")


@dataclass
class RunControl:
    """A parsed run-control file."""

    #: target ("Comp" or "Comp.iface") -> initial level.
    runlevels: Dict[str, str] = field(default_factory=dict)
    switchpoints: List[Switchpoint] = field(default_factory=list)
    #: slider name -> (targets, levels).
    sliders: Dict[str, Tuple[List[str], List[str]]] = field(
        default_factory=dict)
    checkpoint_interval: Optional[float] = None
    until: Optional[float] = None

    # ------------------------------------------------------------------
    def apply(self, target) -> Dict[str, DetailSlider]:
        """Configure ``target``, a Simulator or a cooperative
        CoSimulation; returns the created sliders by name.  A concurrent
        executor is refused: run levels are in-process only.

        Each application registers *fresh copies* of the switchpoints, so
        one parsed file can drive any number of runs without a fired
        switchpoint from an earlier run staying disarmed.
        """
        import dataclasses

        if not isinstance(target, RunLevels):
            raise ConfigurationError(
                f"run control cannot configure a "
                f"{type(target).__name__}: run levels, switchpoints and "
                "sliders are in-process only (a Simulator or a "
                "cooperative CoSimulation)")

        for name, level in self.runlevels.items():
            target.set_runlevel(name, level)
        for switchpoint in self.switchpoints:
            target.add_switchpoint(
                dataclasses.replace(switchpoint, fired=False))
        sliders = {name: target.slider(targets, levels)
                   for name, (targets, levels) in self.sliders.items()}
        if self.checkpoint_interval is not None:
            auto = getattr(target, "auto_checkpoint", None)
            if auto is not None:
                auto(self.checkpoint_interval)
            else:
                target.snapshot_interval = self.checkpoint_interval
        return sliders


#: A line up to its comment: a ``#`` outside quotes starts one.
_CODE_RE = re.compile(r"""((?:[^#"']|"[^"]*"|'[^']*')*)""")


def parse(text: str) -> RunControl:
    """Parse run-control ``text``; raises on malformed lines."""
    control = RunControl()
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE_RE.match(raw).group(1).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigurationError(
                    f"run control line {lineno}: unknown section "
                    f"[{section}] (expected one of {_SECTIONS})")
            continue
        if section is None:
            raise ConfigurationError(
                f"run control line {lineno}: content before any [section]")
        _parse_line(control, section, line, lineno)
    return control


def load(path: str) -> RunControl:
    """Parse the run-control file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path!r}: {exc}") from exc


def _parse_line(control: RunControl, section: str, line: str,
                lineno: int) -> None:
    if section == "runlevels":
        name, __, level = line.partition("=")
        if not __ or not name.strip() or not level.strip():
            raise ConfigurationError(
                f"run control line {lineno}: expected 'target = level'")
        control.runlevels[name.strip()] = level.strip()
    elif section == "switchpoints":
        once = True
        text = line
        if text.lower().startswith("repeat "):
            once = False
            text = text[len("repeat "):]
        control.switchpoints.append(parse_switchpoint(text, once=once))
    elif section == "sliders":
        name, __, rest = line.partition("=")
        targets_text, ___, levels_text = rest.partition(":")
        if not __ or not ___:
            raise ConfigurationError(
                f"run control line {lineno}: expected "
                "'name = target, ... : level, ...'")
        targets = [t.strip() for t in targets_text.split(",") if t.strip()]
        levels = [l.strip() for l in levels_text.split(",") if l.strip()]
        if not targets or not levels:
            raise ConfigurationError(
                f"run control line {lineno}: empty targets or levels")
        control.sliders[name.strip()] = (targets, levels)
    elif section == "checkpoints":
        key, __, value = line.partition("=")
        if key.strip() != "interval":
            raise ConfigurationError(
                f"run control line {lineno}: only 'interval = <seconds>' "
                "is understood in [checkpoints]")
        control.checkpoint_interval = _number(value, lineno)
    elif section == "run":
        key, __, value = line.partition("=")
        if key.strip() != "until":
            raise ConfigurationError(
                f"run control line {lineno}: only 'until = <seconds>' "
                "is understood in [run]")
        control.until = _number(value, lineno)


def _number(text: str, lineno: int) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ConfigurationError(
            f"run control line {lineno}: bad number {text.strip()!r}"
        ) from None
    if value <= 0:
        raise ConfigurationError(
            f"run control line {lineno}: value must be > 0")
    return value
