"""Wrapping real hardware into a Pia component (paper section 2.3).

A :class:`HardwareComponent` drives a :class:`~repro.hw.stub.HardwareStub`
(local or remote) in lockstep with virtual time: every ``window`` seconds
of virtual time it clocks the hardware the corresponding number of ticks,
injects buffered interrupts into the simulation at their exact virtual
times, and applies values received on its ``mmio`` port as register pokes.

The window is the hardware/simulator synchronisation quantum: pokes are
applied at window boundaries, so a smaller window buys input-timing
fidelity at the cost of more stub calls — which matters when the stub is a
:class:`~repro.hw.server.RemoteHardwareClient` at the end of an Internet
link.  This is the same detail/bandwidth trade the run-level machinery
makes for component communication.

Checkpoint/restore note: real hardware cannot be rewound, so every stub
interaction is a logged command — a restore replays the *recorded*
hardware responses.  This is sound as long as re-execution follows the
same path up to the restore point (the framework's usual determinism
requirement); hardware designed for Pia would add true state save, which
the paper also leaves as the ideal case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from ..core.component import ProcessComponent
from ..core.errors import ConfigurationError, HardwareStubError
from ..core.port import PortDirection
from ..core.process import Command, Send, TryReceive, WaitUntil
from .stub import HardwareStub


@dataclass(slots=True)
class HwCall(Command):
    """Perform one stub operation; the result is replay-logged."""

    op: str
    args: Tuple = ()


class HwCallExecutor(ProcessComponent):
    """A process component whose behaviour may yield :class:`HwCall`.

    The stub lives in ``self.stub`` and is infrastructure: never part of a
    checkpoint image, never deep-copied; every interaction is replay-logged
    so restores replay recorded hardware responses (see the module
    docstring).  Subclasses whose stub supports state save get true
    hardware rewind via the inherited snapshot/restore.
    """

    def __init__(self, name: str, stub: HardwareStub) -> None:
        super().__init__(name)
        self.stub = stub
        self._infra_keys.add("stub")

    def _execute_extra(self, cmd: Command) -> Any:
        if isinstance(cmd, HwCall):
            if self.replaying:
                return self.replay_take("hwcall")[1]
            result = getattr(self.stub, cmd.op)(*cmd.args)
            self.log_append("hwcall", result)
            return result
        return super()._execute_extra(cmd)

    def snapshot(self):
        snap = super().snapshot()
        if self.stub.supports_state_save:
            snap.extra["hw_state"] = self.stub.save_state()
        return snap

    def restore(self, snap) -> None:
        super().restore(snap)
        if "hw_state" in snap.extra:
            # Pia-aware hardware really rewinds; anything else keeps its
            # state and relies on the replayed call log (module docstring).
            self.stub.restore_state(snap.extra["hw_state"])


class HardwareComponent(HwCallExecutor):
    """A piece of (simulated or remote) real hardware in the simulation."""

    def __init__(self, name: str, stub: HardwareStub, *,
                 window: float = 1e-3,
                 lifetime: float = 1.0,
                 irq_lines: Sequence[str] = ()) -> None:
        super().__init__(name, stub)
        if window <= 0:
            raise ConfigurationError(f"{name}: window must be > 0")
        if lifetime <= 0:
            raise ConfigurationError(f"{name}: lifetime must be > 0")
        self.window = window
        self.lifetime = lifetime
        self.irq_lines = list(irq_lines)
        #: Interrupts injected, pokes applied (stats).
        self.interrupts_raised = 0
        self.pokes_applied = 0
        self.add_port("mmio", PortDirection.IN)
        for line in self.irq_lines:
            self.add_port(line, PortDirection.OUT)

    # ------------------------------------------------------------------
    def run(self) -> Iterator[Command]:
        yield HwCall("set_time", (0,))
        while self.local_time < self.lifetime:
            # Apply register writes that arrived during the last window.
            while True:
                got = yield TryReceive("mmio")
                if got is None:
                    break
                __, payload = got
                addr, value = payload
                yield HwCall("poke", (addr, value))
                self.pokes_applied += 1
            target = min(self.local_time + self.window, self.lifetime)
            expected_tick = int(round(target * self.stub.clock_hz))
            current = yield HwCall("read_time", ())
            ticks = max(0, expected_tick - current)
            records = yield HwCall("run_for", (ticks,))
            for record in records:
                virtual = record.tick / self.stub.clock_hz
                if record.line not in self.ports:
                    raise HardwareStubError(
                        f"{self.name}: hardware raised unknown line "
                        f"{record.line!r} (wired: {self.irq_lines})")
                # Wait up to the interrupt's instant so the send carries
                # its true virtual time, then raise it.
                yield WaitUntil(virtual)
                yield Send(record.line, record.payload)
                self.interrupts_raised += 1
            yield WaitUntil(target)
