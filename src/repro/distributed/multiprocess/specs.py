"""Picklable specs: how a system is described so it can cross ``spawn``.

Live components cannot be pickled into a worker process, so subsystems
are named factories (dotted-path or :func:`register_factory` names) the
worker resolves and calls in its own process, and channels are declared
by subsystem and net names.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ...core.errors import ConfigurationError
from ...core.subsystem import Subsystem
from ...faults import FaultPlan, RetryPolicy
from ...transport.shm import DEFAULT_RING_CAPACITY

#: Factories registered by short name (an alternative to dotted paths).
_FACTORIES: Dict[str, Callable[..., Subsystem]] = {}


def register_factory(name: str, factory: Callable[..., Subsystem]) -> None:
    """Register ``factory`` under ``name`` for use in subsystem specs.

    Registration is per-process: a factory registered only in the
    coordinator is invisible to spawned workers, so registry names are
    mainly for tests and single-process tooling — specs that must cross
    ``spawn`` should use importable dotted paths.
    """
    if not callable(factory):
        raise ConfigurationError(f"factory {name!r} is not callable")
    _FACTORIES[name] = factory


def resolve_factory(ref: str) -> Callable[..., Subsystem]:
    """Resolve a factory reference: a registered name, ``pkg.mod:attr``,
    or ``pkg.mod.attr``."""
    found = _FACTORIES.get(ref)
    if found is not None:
        return found
    if ":" in ref:
        module_name, __, attr_path = ref.partition(":")
    else:
        module_name, __, attr_path = ref.rpartition(".")
    if not module_name or not attr_path:
        raise ConfigurationError(
            f"cannot resolve subsystem factory {ref!r}: use a registered "
            "name or a dotted path like 'package.module:callable'")
    try:
        target = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import factory module {module_name!r}: {exc}") from exc
    for part in attr_path.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise ConfigurationError(
                f"module {module_name!r} has no attribute chain "
                f"{attr_path!r}") from None
    if not callable(target):
        raise ConfigurationError(f"factory {ref!r} resolved to a "
                                 f"non-callable {target!r}")
    return target


@dataclass(frozen=True)
class SubsystemSpec:
    """A picklable recipe for one subsystem: the factory is called as
    ``factory(name, *args, **kwargs)`` in the worker process and must
    return a fully built :class:`~repro.core.subsystem.Subsystem` of that
    name (components added, nets wired)."""

    name: str
    factory: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def build(self) -> Subsystem:
        subsystem = resolve_factory(self.factory)(
            self.name, *self.args, **dict(self.kwargs))
        if not isinstance(subsystem, Subsystem):
            raise ConfigurationError(
                f"factory {self.factory!r} returned "
                f"{type(subsystem).__name__}, not a Subsystem")
        if subsystem.name != self.name:
            raise ConfigurationError(
                f"factory {self.factory!r} built subsystem "
                f"{subsystem.name!r}, expected {self.name!r}")
        return subsystem


@dataclass(frozen=True)
class ChannelSpec:
    """A picklable conservative channel between two subsystem specs.

    ``nets`` are the names of the split nets the channel carries; each
    side's factory must have created its half (same name) via
    ``Subsystem.wire``.
    """

    channel_id: str
    subsystem_a: str
    node_a: str
    subsystem_b: str
    node_b: str
    delay: float = 0.0
    nets: Tuple[str, ...] = ()

    def touches(self, node: str) -> bool:
        return node in (self.node_a, self.node_b)


class TelemetrySpec(NamedTuple):
    """The coordinator's telemetry plane, as a worker mirrors it."""

    trace_capacity: int
    #: ``TimeSeriesRecorder`` keyword arguments; None for no recorder.
    series: Optional[dict]
    #: Whether links are health-monitored.
    health: bool


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything one worker process needs to bootstrap its node."""

    node: str
    subsystems: Tuple[SubsystemSpec, ...]
    channels: Tuple[ChannelSpec, ...]
    telemetry: TelemetrySpec
    batching: bool = True
    fault_plan: Optional[FaultPlan] = None
    retry_policy: Optional[RetryPolicy] = None
    transport: str = "tcp"
    ring_capacity: int = DEFAULT_RING_CAPACITY
    #: True under ``failure_policy="migrate"``: a vanished peer is the
    #: supervisor's problem, so transport failures wedge the worker
    #: (no progress, await restore) instead of killing it.
    supervised: bool = False
    #: Whether ``status?`` replies carry streaming telemetry deltas.
    stream: bool = False
