"""Process commands are slotted value records; a paused process keeps why
it is paused as a ``(kind, name)`` pair.

The rows pin what an observer outside the engine sees: the debugger's
status text, the checkpoint image's ``(kind, port, interface, token)``
descriptor, how a command is dispatched by its type, and value equality.
The structural guard at the end is the only check on the construction
cost itself: a frozen dataclass's ``__init__`` is one Python frame either
way, so the ledger's call counts cannot see it come back.
"""

import dataclasses
import inspect

import pytest

from repro.core import (
    Advance,
    FunctionComponent,
    Interface,
    ProcessComponent,
    Receive,
    ReceiveTransfer,
    Send,
    SimulationError,
    Simulator,
    WaitUntil,
)
from repro.core import process
from repro.core.process import Command
from repro.debug import Debugger
from repro.hw import component as hw_component
from repro.processor import software
from repro.protocols import bus_protocol

#: Each paused process with its debugger status and checkpoint descriptor.
BLOCKED = {
    "rx": ("blocked: receive in", ("receive", "in", None, None)),
    "bus": ("blocked: transfer bus", ("transfer", None, "bus", None)),
    "sleeper": ("blocked: wake token 1", ("wake", None, None, 1)),
}


def paused_three_ways():
    """``rx`` waits on a port, ``bus`` on an interface and ``sleeper`` on
    its second wake; nothing ever drives ``rx`` or ``bus``."""
    def receiver(comp):
        yield Receive("in")

    def transfer(comp):
        yield ReceiveTransfer("bus")

    def sleeper(comp):
        yield WaitUntil(1.0)
        yield WaitUntil(10.0)

    sim = Simulator()
    sim.add(FunctionComponent("rx", receiver, ports={"in": "in"}))
    bus = FunctionComponent("bus", transfer, ports={"wire": "in"})
    bus.add_interface(Interface("bus", bus_protocol(), in_port="wire"))
    sim.add(bus)
    sim.add(FunctionComponent("sleeper", sleeper))
    sim.run(until=5.0)
    return sim


class TestBlockState:
    def test_debugger_status_names_what_each_process_waits_on(self):
        where = Debugger(paused_three_ways()).where()
        for name, (status, __) in BLOCKED.items():
            assert f"    {name}: local t=" in where
            assert f"[{status}]" in where

    def test_checkpoint_descriptor_keeps_its_four_fields(self):
        sim = paused_three_ways()
        for name, (__, descriptor) in BLOCKED.items():
            assert sim.component(name).snapshot().extra["block"] \
                == descriptor

    def test_restore_from_the_descriptor_replays_to_the_same_pause(self):
        sim = paused_three_ways()
        for name, (status, descriptor) in BLOCKED.items():
            component = sim.component(name)
            component.restore(component.snapshot())
            assert component.is_blocked()
            assert Debugger._block_text(component) == status
            assert component.snapshot().extra["block"] == descriptor
        sim.run()
        sleeper = sim.component("sleeper")
        assert sleeper.finished and sleeper.local_time == 10.0
        assert sim.component("rx").is_blocked()


@dataclasses.dataclass(slots=True)
class Poke(Command):
    """A command no engine knows."""

    addr: int


class Tracing(ProcessComponent):
    """Yields a :class:`Poke` and keeps what reached the extension hook."""

    def __init__(self, name):
        super().__init__(name)
        self.extra = []

    def run(self):
        yield Poke(4)

    def _execute_extra(self, cmd):
        self.extra.append(cmd)
        return super()._execute_extra(cmd)


class TestDispatch:
    def test_a_subclass_of_advance_runs_as_advance(self):
        class Stall(Advance):
            """An ``Advance`` under its own name."""

        def stalls(comp):
            yield Stall(2.0)
            yield Advance(0.5)

        sim = Simulator()
        component = sim.add(FunctionComponent("cpu", stalls))
        sim.run()
        assert component.finished and component.local_time == 2.5

    def test_an_unknown_command_reaches_the_extension_hook(self):
        sim = Simulator()
        component = sim.add(Tracing("cpu"))
        with pytest.raises(SimulationError,
                           match=r"^cpu: unknown command Poke\(addr=4\)$"):
            sim.run()
        assert component.extra == [Poke(4)]


class TestRecords:
    def test_commands_compare_by_value(self):
        assert Advance(1.0) == Advance(1.0)
        assert Advance(1.0) != Advance(2.0)
        assert Send("out", 1) == Send("out", 1, 0.0)
        assert Receive("in") != Send("in", None)

    def test_commands_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Advance(1.0))


def command_classes():
    for module in (process, software, hw_component):
        for value in vars(module).values():
            if inspect.isclass(value) and issubclass(value, Command) \
                    and value.__module__ == module.__name__ \
                    and value is not Command:
                yield value


def sample(cls):
    """An instance of ``cls`` with a zero for every required field."""
    return cls(*(0 for field in dataclasses.fields(cls)
                 if field.default is dataclasses.MISSING
                 and field.default_factory is dataclasses.MISSING))


class TestStructuralGuard:
    """A ``frozen=True`` command pays ``object.__setattr__`` per field
    and a ``__dict__`` per instance; the engine reads a command whole
    before it resumes the generator, so freezing protects nothing."""

    def test_the_guard_sees_every_command(self):
        assert {cls.__name__ for cls in command_classes()} == {
            "Advance", "Send", "Receive", "TryReceive", "WaitUntil", "Sync",
            "Transfer", "ReceiveTransfer", "SwitchLevel", "SaveCheckpoint",
            "MemRead", "MemWrite", "HwCall"}

    @pytest.mark.parametrize("cls", sorted(command_classes(),
                                           key=lambda cls: cls.__name__),
                             ids=lambda cls: cls.__name__)
    def test_a_command_is_slotted_and_settable(self, cls):
        assert not hasattr(sample(cls), "__dict__")
        assert cls.__setattr__ is object.__setattr__
