"""The Pia debugger (paper section 5: "Current work is in the extension
of Pia to include a debugger").

The paper asks for "debugging support for the parts of the system that are
in hardware, the parts in software, the parts that are in simulation, as
well as the system as a whole" (section 1).  One :class:`Debugger` serves
a :class:`~repro.core.simulator.Simulator` (a system of one subsystem) and
a :class:`~repro.distributed.executor.CoSimulation` alike, through what
both answer: ``subsystems``, ``global_time()``, ``component(name)``,
``run(until)`` and ``restore(cut)``.

* **breakpoints** on global, subsystem or component-*local* time (the
  two-level model means these differ!), on a signal delivered anywhere,
  or on an arbitrary predicate;
* **watchpoints** on every half of a net; **single-stepping**;
* **inspection** of the whole system's state (``where``);
* **time travel**: ``rewind()`` restores a checkpoint or a Chandy-Lamport
  snapshot, channels included, and re-executes from it.

Halting is a post-step hook, put on every subsystem when :meth:`run` or
:meth:`step` is called, raising out of the front end's ``run``; the
matching event has been dispatched when the halt lands, as with any
debugger's *continue*.  The hook runs after the switchpoint poll, so a
debugger without breakpoints leaves the run as it was.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.component import ProcessComponent
from ..core.errors import PiaError
from ..core.events import Event, EventKind

_bp_ids = itertools.count(1)


class DebuggerError(PiaError):
    """Misuse of the debugger API."""


@dataclass
class Breakpoint:
    """A condition that halts the run when it becomes true."""

    bp_id: int
    description: str
    condition: Callable[[Any, Optional[Event]], bool]
    enabled: bool = True
    once: bool = False
    hits: int = 0

    def check(self, target: Any, event: Optional[Event]) -> bool:
        if not self.enabled:
            return False
        if self.condition(target, event):
            self.hits += 1
            if self.once:
                self.enabled = False
            return True
        return False


@dataclass
class BreakReason:
    """Why the run stopped."""

    breakpoint: Optional[Breakpoint]
    time: float
    event: Optional[Event] = None

    @property
    def finished(self) -> bool:
        return self.breakpoint is None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.finished:
            return f"finished at t={self.time:g}"
        return (f"breakpoint #{self.breakpoint.bp_id} "
                f"({self.breakpoint.description}) at t={self.time:g}")


@dataclass
class WatchRecord:
    time: float
    net: str        #: ``subsystem:net``, the half that changed
    value: Any


class _Halt(Exception):
    """Internal control flow: the debugger stops the run from its hook."""

    def __init__(self, reason: BreakReason) -> None:
        self.reason = reason


class Debugger:
    """Breakpoints, stepping, inspection and time travel over a system."""

    def __init__(self, target) -> None:
        self.target = target
        self.breakpoints: Dict[int, Breakpoint] = {}
        self.watch_log: List[WatchRecord] = []
        self._watched: set = set()
        #: Ring buffer of recent events (enable with :meth:`trace`).
        self.trace_log: List[str] = []
        self._trace_limit = 0
        #: Only a run or step of this debugger halts; between them the
        #: hook stays installed and does nothing.
        self._armed = False
        #: Events left to dispatch under :meth:`step` (``None``: running).
        self._countdown: Optional[int] = None

    # ------------------------------------------------------------------
    # breakpoints
    # ------------------------------------------------------------------
    def _add(self, description: str, condition, *, once: bool) -> Breakpoint:
        bp = Breakpoint(next(_bp_ids), description, condition, once=once)
        self.breakpoints[bp.bp_id] = bp
        return bp

    def break_at(self, time: float, *, once: bool = True) -> Breakpoint:
        """Halt when global time (the slowest subsystem's) reaches
        ``time``."""
        return self._add(
            f"t >= {time:g}",
            lambda target, event: target.global_time() >= time, once=once)

    def break_at_subsystem_time(self, subsystem: str, time: float, *,
                                once: bool = True) -> Breakpoint:
        """Halt when ``subsystem``'s own time reaches ``time``."""
        return self._add(
            f"{subsystem} t >= {time:g}",
            lambda target, event: target.subsystems[subsystem].now >= time,
            once=once)

    def break_at_local_time(self, component: str, time: float, *,
                            once: bool = True) -> Breakpoint:
        """Halt when ``component``'s *local* time reaches ``time`` — which
        can be long before system time does (run-ahead)."""
        return self._add(
            f"{component}.localtime >= {time:g}",
            lambda target, event:
                target.component(component).local_time >= time,
            once=once)

    def break_on_signal(self, net: str, value: Any = None, *,
                        once: bool = True) -> Breakpoint:
        """Halt when a value (``value`` if given) is *delivered* on ``net``.

        Components run ahead, so a net's ``value`` attribute updates when
        the driver posts; the debugger instead halts at the virtual time
        the signal reaches a listener — the observable instant.
        """
        def condition(target: Any, event: Optional[Event]) -> bool:
            if event is None or event.kind not in (EventKind.SIGNAL,
                                                   EventKind.INTERRUPT):
                return False
            port = event.target
            if port.net is None or port.net.name != net:
                return False
            return value is None or event.payload == value

        label = f"net {net}" + ("" if value is None else f" == {value!r}")
        return self._add(label, condition, once=once)

    def break_when(self, predicate: Callable[[Any], bool], *,
                   description: str = "<predicate>",
                   once: bool = True) -> Breakpoint:
        """Halt on an arbitrary condition over the system."""
        return self._add(description,
                         lambda target, event: predicate(target), once=once)

    def delete(self, bp_id: int) -> None:
        if bp_id not in self.breakpoints:
            raise DebuggerError(f"no breakpoint #{bp_id}")
        del self.breakpoints[bp_id]

    # ------------------------------------------------------------------
    # watch & trace
    # ------------------------------------------------------------------
    def watch(self, net: str) -> None:
        """Log every value change of ``net`` — each half of it, in every
        subsystem — into :attr:`watch_log`."""
        if net in self._watched:
            return
        halves = [(name, subsystem.nets[net]) for name, subsystem
                  in self.target.subsystems.items() if net in subsystem.nets]
        if not halves:
            raise DebuggerError(f"no net named {net!r} in any subsystem")
        for name, half in halves:
            half.observers.append(
                lambda n, time, value, ss=name: self.watch_log.append(
                    WatchRecord(time, f"{ss}:{n.name}", value)))
        self._watched.add(net)

    def trace(self, limit: int = 1000) -> None:
        """Keep a rolling textual trace of dispatched events."""
        self._trace_limit = limit

    def _record_trace(self, event: Event) -> None:
        target = getattr(event.target, "full_name",
                         getattr(event.target, "name", repr(event.target)))
        self.trace_log.append(
            f"t={event.time:g} {event.kind.value} -> {target} "
            f"payload={event.payload!r}")
        if len(self.trace_log) > self._trace_limit:
            del self.trace_log[: len(self.trace_log) - self._trace_limit]

    # ------------------------------------------------------------------
    # execution control
    # ------------------------------------------------------------------
    def _hook(self, event: Event) -> None:
        if not self._armed:
            return
        if self._trace_limit:
            self._record_trace(event)
        if self._countdown is not None:
            self._countdown -= 1
            if self._countdown == 0:
                raise _Halt(BreakReason(None, self.target.global_time(),
                                        event))
            return
        for bp in list(self.breakpoints.values()):
            if bp.check(self.target, event):
                raise _Halt(BreakReason(bp, self.target.global_time(), event))

    def run(self, until: float = float("inf")) -> BreakReason:
        """Run until a breakpoint fires, ``until`` passes, or it drains.

        Like any debugger's *continue*, at least one event is dispatched
        before conditions are re-evaluated — otherwise a still-true
        breakpoint would pin the system in place.
        """
        for subsystem in self.target.subsystems.values():
            hooks = subsystem.scheduler.post_step_hooks
            if self._hook not in hooks:
                hooks.append(self._hook)
        self._armed = True
        try:
            self.target.run(until)
        except _Halt as halt:
            return halt.reason
        finally:
            self._armed = False
            self._countdown = None
        return BreakReason(None, self.target.global_time())

    def step(self, count: int = 1) -> BreakReason:
        """Dispatch up to ``count`` events anywhere, ignoring breakpoints;
        the reason carries the ``count``-th (none if the run drained
        first)."""
        if count <= 0:
            return BreakReason(None, self.target.global_time())
        self._countdown = count
        return self.run()

    # ------------------------------------------------------------------
    # time travel
    # ------------------------------------------------------------------
    def rewind(self, cut: Any = None) -> float:
        """Restore a cut — a checkpoint id or a snapshot id, default the
        most recent — and return the global time it put the system at.
        Take cuts with the front end: ``sim.checkpoint()`` or
        ``cosim.snapshot()``."""
        self.target.restore(cut)
        return self.target.global_time()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def where(self) -> str:
        """A human-readable summary of the whole system's state."""
        subsystems = self.target.subsystems
        lines = [f"global t={self.target.global_time():g} over "
                 f"{len(subsystems)} subsystem(s)"]
        for name in sorted(subsystems):
            subsystem = subsystems[name]
            node = f" @ {subsystem.node.name}" if subsystem.node else ""
            lines.append(
                f"  {name}{node}: t={subsystem.now:g}, "
                f"{len(subsystem.scheduler.queue)} pending events, "
                f"next at t={subsystem.next_event_time():g}, "
                f"stalls={subsystem.scheduler.stalls}")
            for comp_name in sorted(subsystem.components):
                if comp_name.startswith("__channel"):
                    continue
                component = subsystem.components[comp_name]
                status = "finished" if component.finished else (
                    self._block_text(component) or "runnable")
                lines.append(f"    {comp_name}: local t="
                             f"{component.local_time:g} [{status}] "
                             f"level={component.runlevel}")
        return "\n".join(lines)

    @staticmethod
    def _block_text(component) -> Optional[str]:
        if isinstance(component, ProcessComponent) and component.is_blocked():
            kind, name = component._block
            if kind == "wake":
                name = f"token {name}"
            return f"blocked: {kind} {name}"
        return None

    def inspect(self, component: str) -> Dict[str, Any]:
        """A component's user-visible state (its checkpointable attrs)."""
        target = self.target.component(component)
        state = dict(target._user_attrs())
        state["__local_time__"] = target.local_time
        state["__finished__"] = target.finished
        return state

    def backtrace(self, last: int = 20) -> List[str]:
        """The most recent trace lines (enable with :meth:`trace`)."""
        return self.trace_log[-last:]
