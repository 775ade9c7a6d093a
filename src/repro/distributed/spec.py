"""One system description every executor loads (paper section 2.2.1:
"a global view of the system"; placement must not change behaviour).

A :class:`SystemSpec` is plain picklable data, so it is realised in this
process (:meth:`~repro.distributed.system.LiveSystem.load`) or crosses
``spawn`` into a worker that realises its own node's slice.  Live
components cannot be pickled: subsystems are named factories (dotted
paths) the hosting process resolves and calls, channels are declared by
subsystem and net names.
"""

from __future__ import annotations

import pkgutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..core.errors import ConfigurationError
from ..core.subsystem import Subsystem
from ..transport.latency import LatencyModel
from .channel import ChannelMode

def resolve_factory(ref: str) -> Callable[..., Subsystem]:
    """Resolve a factory reference: ``pkg.mod:attr`` or ``pkg.mod.attr``.
    (Design factories are named the same way.)"""
    try:
        target = pkgutil.resolve_name(ref)
    except (ValueError, ImportError, AttributeError) as exc:
        raise ConfigurationError(
            f"cannot resolve subsystem factory {ref!r} ({exc}): use a "
            "dotted path like 'package.module:callable'") from exc
    if not callable(target):
        raise ConfigurationError(f"factory {ref!r} resolved to a "
                                 f"non-callable {target!r}")
    return target


@dataclass(frozen=True)
class SubsystemSpec:
    """A picklable recipe for one subsystem: the factory is called as
    ``factory(name, *args, **kwargs)`` in the hosting process and must
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
    """A picklable channel between two subsystem specs.

    ``nets`` are the names of the split nets the channel carries; each
    side's factory must have created its half (same name) via
    ``Subsystem.wire``.  ``seq`` is the channel's 1-based declaration
    ordinal: ids travel on the wire, so a realiser derives them as
    ``prefix + seq + names`` with its executor's own prefix.
    """

    seq: int
    subsystem_a: str
    node_a: str
    subsystem_b: str
    node_b: str
    delay: float = 0.0
    nets: Tuple[str, ...] = ()
    mode: ChannelMode = ChannelMode.CONSERVATIVE

    def touches(self, node: str) -> bool:
        return node in (self.node_a, self.node_b)


@dataclass
class SystemSpec:
    """Nodes, subsystems, channels and link models as plain data, with
    the checks that can be made at declaration time."""

    #: node name -> the subsystems it hosts, in declaration order.
    nodes: Dict[str, List[SubsystemSpec]] = field(default_factory=dict)
    channels: List[ChannelSpec] = field(default_factory=list)
    #: ``(node a, node b, model)`` latency models (both directions).
    links: List[Tuple[str, str, LatencyModel]] = field(default_factory=list)
    #: subsystem name -> its node (what ``connect`` looks names up in).
    homes: Dict[str, str] = field(default_factory=dict)

    def add_node(self, name: str) -> str:
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node {name!r}")
        self.nodes[name] = []
        return name

    def add_subsystem(self, node: str, name: str, factory: str,
                      *args, **kwargs) -> SubsystemSpec:
        """Declare subsystem ``name`` on ``node``, built where it runs by
        ``factory(name, *args, **kwargs)`` (see :func:`resolve_factory`).
        Positional and keyword arguments must be picklable."""
        if node not in self.nodes:
            raise ConfigurationError(f"no node named {node!r}")
        if name in self.homes:
            raise ConfigurationError(f"duplicate subsystem {name!r}")
        sspec = SubsystemSpec(name, factory, tuple(args), dict(kwargs))
        self.nodes[node].append(sspec)
        self.homes[name] = node
        return sspec

    def connect(self, a: str, b: str, *, delay: float = 0.0,
                nets: Tuple[str, ...] = (),
                mode: ChannelMode = ChannelMode.CONSERVATIVE) -> ChannelSpec:
        """Declare a channel between subsystems ``a`` and ``b`` carrying
        the named split nets."""
        for name in (a, b):
            if name not in self.homes:
                raise ConfigurationError(f"no subsystem named {name!r}")
        if a == b:
            raise ConfigurationError(
                f"cannot connect subsystem {a!r} to itself")
        cspec = ChannelSpec(
            seq=len(self.channels) + 1,
            subsystem_a=a, node_a=self.homes[a],
            subsystem_b=b, node_b=self.homes[b],
            delay=delay, nets=tuple(nets), mode=mode)
        self.channels.append(cspec)
        return cspec

    def set_link_model(self, node_a: str, node_b: str,
                       model: LatencyModel) -> None:
        self.links.append((node_a, node_b, model))

