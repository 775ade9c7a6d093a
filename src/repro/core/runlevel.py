"""Detail levels (*run levels*) and switchpoints (paper section 2.1.3).

Changes in detail level are triggered by one of three things:

1. the user directly altering a run level — modelled by
   :class:`DetailSlider`;
2. a *switchpoint* defined in the simulation run-control file — parsed by
   :func:`parse_switchpoint` and evaluated by :class:`SwitchpointManager`;
3. imperative switch statements in component source — the
   :class:`~repro.core.process.SwitchLevel` command.

A switchpoint is a condition over component local times (and net signal
values), with conjuncts and disjuncts allowed across multiple components,
plus a list of run-level assignments.  The paper's example::

    when I2CComponent.localtime >= 67:
        I2CComponent -> hardwareLevel, VidCamComponent -> byteLevel

is written here as the one-liner::

    "when I2CComponent.localtime >= 67: I2CComponent -> hardwareLevel, "
    "VidCamComponent -> byteLevel"
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from .errors import ConfigurationError, RunLevelError, SwitchpointSyntaxError

# ---------------------------------------------------------------------------
# expression AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalTimeRef:
    component: str


@dataclass(frozen=True)
class SignalRef:
    net: str


@dataclass(frozen=True)
class Comparison:
    ref: Union[LocalTimeRef, SignalRef]
    op: str
    value: Any


@dataclass(frozen=True)
class And:
    terms: tuple


@dataclass(frozen=True)
class Or:
    terms: tuple


_OPS: dict[str, Callable[[Any, Any], bool]] = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<arrow>->)
      | (?P<op>>=|<=|==|!=|>|<)
      | (?P<punct>[():,])
      | (?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
      | (?P<string>"[^"]*"|'[^']*')
      | (?P<name>[A-Za-z_][\w.]*)
      | (?P<word>\S)
    )""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            break
        pos = match.end()
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "word":
            raise SwitchpointSyntaxError(
                f"unexpected character {value!r} in switchpoint: {text!r}")
        tokens.append((kind, value))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], source: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise SwitchpointSyntaxError(
                f"unexpected end of switchpoint: {self.source!r}")
        self.pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        token = self.next()
        if token[0] != kind or (value is not None and token[1] != value):
            raise SwitchpointSyntaxError(
                f"expected {value or kind} but found {token[1]!r} "
                f"in {self.source!r}")
        return token[1]

    # grammar ------------------------------------------------------------
    def parse_or(self):
        terms = [self.parse_and()]
        while self.peek() == ("name", "or"):
            self.next()
            terms.append(self.parse_and())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse_and(self):
        terms = [self.parse_atom()]
        while self.peek() == ("name", "and"):
            self.next()
            terms.append(self.parse_atom())
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def parse_atom(self):
        token = self.peek()
        if token == ("punct", "("):
            self.next()
            inner = self.parse_or()
            self.expect("punct", ")")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> Comparison:
        name = self.expect("name")
        ref = self._make_ref(name)
        op = self.expect("op")
        kind, raw = self.next()
        if kind == "number":
            value: Any = float(raw) if ("." in raw or "e" in raw.lower()) \
                else int(raw)
        elif kind == "string":
            value = raw[1:-1]
        elif kind == "name":
            value = raw
        else:
            raise SwitchpointSyntaxError(
                f"bad comparison value {raw!r} in {self.source!r}")
        return Comparison(ref, op, value)

    def _make_ref(self, dotted: str) -> Union[LocalTimeRef, SignalRef]:
        parts = dotted.split(".")
        if len(parts) == 2 and parts[1] == "localtime":
            return LocalTimeRef(parts[0])
        if len(parts) == 2 and parts[0] == "net":
            return SignalRef(parts[1])
        raise SwitchpointSyntaxError(
            f"unknown reference {dotted!r}: expected Component.localtime "
            f"or net.NetName, in {self.source!r}")

    def parse_assignments(self) -> list[tuple[str, str]]:
        assignments = [self.parse_assignment()]
        while self.peek() == ("punct", ","):
            self.next()
            assignments.append(self.parse_assignment())
        if self.peek() is not None:
            raise SwitchpointSyntaxError(
                f"trailing tokens after assignments in {self.source!r}")
        return assignments

    def parse_assignment(self) -> tuple[str, str]:
        target = self.expect("name")
        self.expect("arrow")
        level = self.expect("name")
        return target, level


@dataclass
class Switchpoint:
    """A parsed switchpoint: a condition and the switches it triggers."""

    condition: Any
    assignments: list[tuple[str, str]]
    source: str = ""
    #: Fire once (the usual case) or every time the condition holds.
    once: bool = True
    fired: bool = False

    def evaluate(self, env: "SwitchpointEnvironment") -> bool:
        return _eval(self.condition, env)


def parse_switchpoint(text: str, *, once: bool = True) -> Switchpoint:
    """Parse ``"when <condition>: <target> -> <level>, ..."``.

    The leading ``when`` keyword is optional.
    """
    tokens = _tokenize(text)
    if tokens and tokens[0] == ("name", "when"):
        tokens = tokens[1:]
    parser = _Parser(tokens, text)
    condition = parser.parse_or()
    parser.expect("punct", ":")
    assignments = parser.parse_assignments()
    return Switchpoint(condition, assignments, source=text, once=once)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class SwitchpointEnvironment:
    """Name resolution for switchpoint conditions.

    ``local_time(component)`` and ``signal(net)`` may look across every
    subsystem of a distributed system — the paper notes a condition "can
    include conjuncts and disjuncts of conditions across multiple
    components".
    """

    def __init__(self, *,
                 local_time: Callable[[str], float],
                 signal: Callable[[str], Any]) -> None:
        self.local_time = local_time
        self.signal = signal


def _eval(node: Any, env: SwitchpointEnvironment) -> bool:
    if isinstance(node, Or):
        return any(_eval(term, env) for term in node.terms)
    if isinstance(node, And):
        return all(_eval(term, env) for term in node.terms)
    if isinstance(node, Comparison):
        if isinstance(node.ref, LocalTimeRef):
            actual = env.local_time(node.ref.component)
        else:
            actual = env.signal(node.ref.net)
        try:
            return _OPS[node.op](actual, node.value)
        except TypeError:
            return False
    raise RunLevelError(f"cannot evaluate switchpoint node {node!r}")


class SwitchpointManager:
    """Evaluates registered switchpoints and applies their assignments."""

    def __init__(self, env: SwitchpointEnvironment,
                 apply: Callable[[str, str], None]) -> None:
        self.env = env
        self.apply = apply
        self.switchpoints: list[Switchpoint] = []
        #: (virtual_time, source) of every switch applied, for inspection.
        self.history: list[tuple[float, str]] = []
        #: Called on the first registration: the owner's per-event poll
        #: is installed then, not paid by runs without switchpoints.
        self.on_first: Optional[Callable[[], None]] = None
        #: cut id (checkpoint or snapshot) -> :meth:`state` at that cut.
        self._saved: dict = {}

    def add(self, switchpoint: Union[str, Switchpoint], *,
            once: bool = True) -> Switchpoint:
        if isinstance(switchpoint, str):
            switchpoint = parse_switchpoint(switchpoint, once=once)
        self.switchpoints.append(switchpoint)
        if len(self.switchpoints) == 1 and self.on_first is not None:
            self.on_first()
        return switchpoint

    def poll(self, now: float) -> int:
        """Evaluate all armed switchpoints; returns how many fired."""
        fired = 0
        for sp in self.switchpoints:
            if sp.once and sp.fired:
                continue
            if sp.evaluate(self.env):
                for target, level in sp.assignments:
                    self.apply(target, level)
                sp.fired = True
                fired += 1
                self.history.append((now, sp.source))
        return fired

    def state(self) -> tuple:
        """The armed/fired flags and switch history, to be saved next to a
        checkpoint: a restore must re-arm anything that fired after it, or
        replay would diverge from the original run."""
        return ([sp.fired for sp in self.switchpoints], list(self.history))

    def load_state(self, saved: tuple) -> None:
        fired_flags, history = saved
        for sp, fired in zip(self.switchpoints, fired_flags):
            sp.fired = fired
        self.history = list(history)

    def save(self, cut: Any) -> None:
        """File :meth:`state` under the id of the cut just taken."""
        self._saved[cut] = self.state()

    def load(self, cut: Any) -> None:
        """Back to the state filed under ``cut`` (if any was)."""
        saved = self._saved.get(cut)
        if saved is not None:
            self.load_state(saved)


class RunLevels:
    """The run-level surface of a front end (paper section 2.1.3).

    A :class:`~repro.core.simulator.Simulator` is a system of one
    subsystem, a :class:`~repro.distributed.executor.CoSimulation` one of
    many; both answer a ``subsystems`` mapping and ``global_time()``, and
    this is the one body that reads them: component look-up, run-level
    switches, sliders, and switchpoints polled after every event once the
    first one is registered — ahead of any other post-step hook, at
    global time, their state saved and restored with each cut.
    """

    subsystems: dict

    def __init__(self) -> None:
        env = SwitchpointEnvironment(local_time=self._local_time,
                                     signal=self._signal)
        self.switchpoints = SwitchpointManager(env, self.set_runlevel)
        self.switchpoints.on_first = self._arm_switchpoints

    def component(self, name: str):
        for subsystem in self.subsystems.values():
            if name in subsystem.components:
                return subsystem.components[name]
        raise ConfigurationError(f"no component named {name!r}")

    def set_runlevel(self, target: str, level: str) -> None:
        """Switch ``"Component"`` or ``"Component.interface"``, wherever
        the component lives."""
        self.component(target.split(".", 1)[0]).subsystem.set_runlevel(
            target, level)

    def add_switchpoint(self, text_or_sp: Union[str, Switchpoint], *,
                        once: bool = True) -> Switchpoint:
        """Register a switchpoint from the run-control file syntax."""
        return self.switchpoints.add(text_or_sp, once=once)

    def slider(self, targets: Iterable[str],
               levels: Iterable[str]) -> "DetailSlider":
        """Create the paper's detail-level slider over ``targets``."""
        return DetailSlider(list(targets), list(levels), self.set_runlevel)

    def _local_time(self, component: str) -> float:
        return self.component(component).local_time

    def _signal(self, net: str) -> Any:
        for subsystem in self.subsystems.values():
            if net in subsystem.nets:
                return subsystem.nets[net].value
        raise ConfigurationError(f"no net named {net!r}")

    def _arm_switchpoints(self, subsystems: Optional[Iterable] = None) -> None:
        # Once a switchpoint exists it is evaluated after every event, not
        # just at run-slice boundaries (a slice can be the whole
        # simulation); first in line, ahead of a debugger's hook.
        for subsystem in subsystems or self.subsystems.values():
            subsystem.scheduler.post_step_hooks.insert(
                0, self._poll_switchpoints)

    def _poll_switchpoints(self, event: Any = None) -> None:
        """Every subsystem's post-step hook, and the front end's own poll
        before the first event."""
        if self.switchpoints.switchpoints:
            self.switchpoints.poll(self.global_time())


class DetailSlider:
    """The paper's "detail level slider": one knob over ordered levels.

    ``levels`` is ordered from most abstract to most detailed; ``set``
    moves the knob and reconfigures every target accordingly.
    """

    def __init__(self, targets: Sequence[str], levels: Sequence[str],
                 apply: Callable[[str, str], None]) -> None:
        if not levels:
            raise RunLevelError("slider needs at least one level")
        self.targets = list(targets)
        self.levels = list(levels)
        self.apply = apply
        self.position = 0

    @property
    def level(self) -> str:
        return self.levels[self.position]

    def set(self, position: int) -> str:
        if not 0 <= position < len(self.levels):
            raise RunLevelError(
                f"slider position {position} out of range 0..{len(self.levels) - 1}")
        self.position = position
        for target in self.targets:
            self.apply(target, self.level)
        return self.level

    def more_detail(self) -> str:
        return self.set(min(self.position + 1, len(self.levels) - 1))

    def less_detail(self) -> str:
        return self.set(max(self.position - 1, 0))
