"""The command vocabulary of process-style components.

A :class:`~repro.core.component.ProcessComponent` describes sequential
behaviour — typically embedded software — as a Python generator that
``yield``\\ s these commands.  The scheduler executes each command and, for
the blocking ones, resumes the generator with a result once the simulated
world has caught up.

This mirrors the paper's execution model (section 2.1): a component runs
freely, advancing only its *local* time, until it is ready to receive a
value from another component; it then pauses until subsystem time reaches
its local time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


class Command:
    """Base class for everything a process behaviour may ``yield``: plain
    value records (slotted, equal by value, unhashable), read whole by the
    engine before the generator resumes, so never frozen."""

    __slots__ = ()


@dataclass(slots=True)
class Advance(Command):
    """Advance the component's local virtual time by ``dt`` seconds.

    This is how basic-block timing estimates embedded in the software reach
    the simulator (paper section 2.1).
    """

    dt: float


@dataclass(slots=True)
class Send(Command):
    """Drive ``value`` onto the net behind port ``port``.

    The value is posted at ``local_time + delay``; the component does not
    block.
    """

    port: str
    value: Any
    delay: float = 0.0


@dataclass(slots=True)
class Receive(Command):
    """Block until a value is available on port ``port``.

    Resumes with ``(time, value)`` where ``time`` is the component's new
    local time (the later of its pause time and the value's arrival time).
    """

    port: str


@dataclass(slots=True)
class TryReceive(Command):
    """Non-blocking receive: resumes immediately with ``(time, value)`` if
    port ``port`` has a buffered value, else with ``None``.

    Used by hardware-in-the-loop components that drain their input
    registers between clock windows rather than blocking on them.
    """

    port: str


@dataclass(slots=True)
class WaitUntil(Command):
    """Block until virtual time ``time``; resumes with the new local time.

    A no-op when the component's local time is already past ``time``.
    """

    time: float


@dataclass(slots=True)
class Sync(Command):
    """Block until subsystem time catches up with this component's local time.

    This is the synchronisation a component performs before touching a
    *synchronous* memory location (paper section 2.1.1): once the wait
    completes, every message and interrupt stamped at or before the
    component's local time has been delivered.
    """


@dataclass(slots=True)
class Transfer(Command):
    """Perform one logical transfer of ``payload`` through ``interface``.

    The interface's protocol codec, at its current detail level, expands the
    payload into a level-dependent sequence of timed wire values (paper
    section 2.1.3).  The component's local time advances across the whole
    transfer; it does not block.
    """

    interface: str
    payload: Any


@dataclass(slots=True)
class ReceiveTransfer(Command):
    """Block until one complete logical transfer arrives on ``interface``.

    Resumes with ``(time, payload)``.  Chunks are reassembled per the
    framing each transfer carries, so the receiver is level-agnostic and a
    detail switch between transfers is always safe.
    """

    interface: str


@dataclass(slots=True)
class SwitchLevel(Command):
    """Imperatively change a detail level from inside component source.

    ``target`` names a component (``"Comp"``) or interface
    (``"Comp.iface"``); ``None`` means the yielding component itself.  The
    switch takes effect at the next safe point (transfer boundary).
    """

    level: str
    target: Optional[str] = None


@dataclass(slots=True)
class SaveCheckpoint(Command):
    """Request a subsystem-wide checkpoint from inside a behaviour."""

    label: Optional[str] = None
