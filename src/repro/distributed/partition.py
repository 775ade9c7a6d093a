"""Net splitting by a cut of the component graph (paper section 2.2.1).

"When moving a set of components from one subsystem to another, the split
in the relevant nets can be determined by a cut of the component graph.
Essentially, a boundary is drawn around all components that are moved, and
any net that crosses this boundary is split.  If performed repeatedly and
locally, this could force some nets to pass through subsystems which
contain no components relevant to the net, so a global view of the system
must be consulted when performing each split."

This module *is* that global view: a :class:`Design` holds the whole
component/net graph independent of any placement, and a placement is
realised from scratch — every split is computed from the global graph,
so no net ever passes through an unrelated subsystem.  :func:`realise`
builds one subsystem of a placement and :func:`plan` its nodes and
channels; :func:`deploy` (a live design into a live system) and
:func:`spec_of` (a design factory into a picklable
:class:`~repro.distributed.spec.SystemSpec`) are the two front ends.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..core.component import Component
from ..core.errors import ConfigurationError
from ..core.subsystem import Subsystem
from .channel import Channel, ChannelMode
from .spec import SystemSpec, resolve_factory

if TYPE_CHECKING:  # pragma: no cover
    from .system import LiveSystem


@dataclass
class NetSpec:
    """One net of the global design, placement-independent."""

    name: str
    #: (component name, port name) endpoints.
    endpoints: List[Tuple[str, str]]
    delay: float = 0.0


class Design:
    """The global view of the system under test: components plus nets."""

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self.components: Dict[str, Component] = {}
        self.nets: Dict[str, NetSpec] = {}

    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        if component.name in self.components:
            raise ConfigurationError(
                f"{self.name}: duplicate component {component.name}")
        self.components[component.name] = component
        return component

    def connect(self, net_name: str, *endpoints: Tuple[str, str],
                delay: float = 0.0) -> NetSpec:
        """Declare a net joining ``(component, port)`` endpoints."""
        if net_name in self.nets:
            raise ConfigurationError(f"{self.name}: duplicate net {net_name}")
        for comp_name, port_name in endpoints:
            component = self.components.get(comp_name)
            if component is None:
                raise ConfigurationError(
                    f"net {net_name}: unknown component {comp_name!r}")
            component.port(port_name)   # raises if missing
        spec = NetSpec(net_name, list(endpoints), delay)
        self.nets[net_name] = spec
        return spec

    # ------------------------------------------------------------------
    def component_graph(self, *, weights: Optional[Dict[str, float]] = None
                        ) -> Dict[str, Dict[str, float]]:
        """Undirected component graph as a symmetric adjacency
        ``{a: {b: weight}}``; edge weight approximates traffic.

        ``weights`` optionally maps net names to expected traffic; the
        default weight is 1 per net between each endpoint pair.
        """
        graph: Dict[str, Dict[str, float]] = {
            name: {} for name in self.components}
        for spec in self.nets.values():
            weight = (weights or {}).get(spec.name, 1.0)
            members = [name for name, __ in spec.endpoints]
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if a != b:
                        graph[a][b] = graph[b][a] = (
                            graph[a].get(b, 0.0) + weight)
        return graph

    def cut_nets(self, assignment: Dict[str, str]) -> List[str]:
        """Names of nets crossed by the boundary ``assignment`` draws."""
        crossed = []
        for spec in self.nets.values():
            homes = {self._home(assignment, name)
                     for name, __ in spec.endpoints}
            if len(homes) > 1:
                crossed.append(spec.name)
        return crossed

    def _home(self, assignment: Dict[str, str], component: str) -> str:
        try:
            return assignment[component]
        except KeyError:
            raise ConfigurationError(
                f"component {component!r} has no subsystem assignment"
            ) from None


def suggest_partition(design: Design, *,
                      weights: Optional[Dict[str, float]] = None,
                      seed: int = 0) -> Dict[str, str]:
    """A balanced two-way cut minimising crossing traffic (Kernighan-Lin).

    This automates what the paper leaves to the designer: choosing which
    components to move to the second host.  The halves differ in size by
    at most one and ``ss0`` is the one holding the alphabetically first
    component.

    A pass tentatively swaps the best free pair until the smaller half
    runs out, then keeps the prefix of swaps that gained most; passes
    repeat from a seeded start until none gains, one per component at
    most (a bound only float noise could reach).  Names are walked in
    sorted order and ties go to the smallest pair, so the answer depends
    on the design and ``seed`` alone, never on set or hash order.
    """
    graph = design.component_graph(weights=weights)
    names = sorted(graph)
    random.Random(seed).shuffle(names)
    half = len(names) // 2
    on_left = {name: i < half for i, name in enumerate(names)}
    names.sort()
    for __ in names:
        trial, free = dict(on_left), list(names)
        total = best = 0.0
        for __ in range(half):
            # What moving each free vertex across would save on its own.
            saving = {a: sum(w if trial[a] != trial[b] else -w
                             for b, w in graph[a].items()) for a in free}
            loss, a, b = min(
                (2 * graph[a].get(b, 0.0) - saving[a] - saving[b], a, b)
                for a in free if trial[a] for b in free if not trial[b])
            trial[a], trial[b] = False, True
            free.remove(a)
            free.remove(b)
            total -= loss
            if total > best:
                best, kept = total, dict(trial)
        if not best:
            break
        on_left = kept
    return {name: "ss0" if on_left[name] == on_left[names[0]] else "ss1"
            for name in names}


@dataclass
class Deployment:
    """The realised placement: subsystems, split nets and channels."""

    subsystems: Dict[str, Subsystem] = field(default_factory=dict)
    channels: Dict[Tuple[str, str], Channel] = field(default_factory=dict)
    #: net name -> subsystem names it was split across (empty if local).
    splits: Dict[str, List[str]] = field(default_factory=dict)


def realise(design: Design, assignment: Dict[str, str],
            name: str) -> Subsystem:
    """Subsystem ``name`` of the placement, no executor involved: its
    components, the nets local to it, and its half of every split net."""
    subsystem = Subsystem(name)
    for comp_name, ss_name in sorted(assignment.items()):
        if ss_name == name:
            subsystem.add(design.components[comp_name])
    for net in sorted(design.nets.values(), key=lambda n: n.name):
        ports = [design.components[comp_name].port(port_name)
                 for comp_name, port_name in net.endpoints
                 if assignment[comp_name] == name]
        if ports:
            subsystem.wire(net.name, *ports, delay=net.delay)
    return subsystem


def realise_from(name: str, design_factory: str, args: tuple, kwargs: dict,
                 assignment: Dict[str, str]) -> Subsystem:
    """:func:`realise` behind a design-factory reference — the subsystem
    factory :func:`spec_of` names, so each hosting process builds its
    own copy of the design (live components cannot cross ``spawn``)."""
    design = resolve_factory(design_factory)(*args, **kwargs)
    return realise(design, assignment, name)


def plan(design: Design, assignment: Dict[str, str],
         placement: Optional[Dict[str, str]] = None) -> tuple:
    """Where everything goes: ``(homes, splits, channels)``.

    ``homes`` maps subsystem -> node (``placement``, default one node per
    subsystem); ``splits`` maps each cut net to the subsystems it spans;
    ``channels`` maps each communicating pair, in creation order, to its
    ``(root, other)`` orientation and the split nets it carries.  A net
    spanning three or more subsystems is relayed along a star rooted at
    the subsystem holding most of its endpoints, as channel components
    forward injected values onwards.
    """
    unknown = sorted(set(assignment) - set(design.components))
    if unknown:
        raise ConfigurationError(
            f"assignment references unknown component {unknown[0]!r}")
    missing = set(design.components) - set(assignment)
    if missing:
        raise ConfigurationError(
            f"components without assignment: {sorted(missing)}")
    homes = {ss_name: (placement or {}).get(ss_name, f"node-{ss_name}")
             for __, ss_name in sorted(assignment.items())}
    splits: Dict[str, List[str]] = {}
    channels: Dict[Tuple[str, str], tuple] = {}
    for net in sorted(design.nets.values(), key=lambda n: n.name):
        endpoints = Counter(assignment[comp_name]
                            for comp_name, __ in net.endpoints)
        if len(endpoints) == 1:
            continue
        spans = splits[net.name] = sorted(endpoints)
        # Star rooted at the subsystem with the most endpoints (global
        # view: no pass-through subsystems are ever introduced).
        root = max(spans, key=lambda name: (endpoints[name], name))
        for other in spans:
            if other != root:
                channels.setdefault(
                    (min(root, other), max(root, other)),
                    ((root, other), []))[1].append(net.name)
    return homes, splits, channels


def deploy(design: Design, assignment: Dict[str, str],
           cosim: "LiveSystem", *,
           placement: Optional[Dict[str, str]] = None,
           mode: ChannelMode = ChannelMode.CONSERVATIVE,
           channel_delay: float = 0.0) -> Deployment:
    """Realise ``design`` under ``assignment`` inside ``cosim``.

    ``assignment`` maps component name -> subsystem name; ``placement``
    maps subsystem name -> node name (see :func:`plan`).  Channels are
    created per communicating subsystem pair.
    """
    homes, splits, channels = plan(design, assignment, placement)
    deployment = Deployment(splits=splits)
    for ss_name, node in homes.items():
        if node not in cosim.nodes:
            cosim.add_node(node)
        deployment.subsystems[ss_name] = cosim.add_subsystem(
            node, realise(design, assignment, ss_name))
    for key, ((root, other), nets) in channels.items():
        deployment.channels[key] = cosim.connect(
            deployment.subsystems[root], deployment.subsystems[other],
            mode=mode, delay=channel_delay, nets=nets)
    return deployment


def spec_of(design_factory: str, *args,
            assignment: Dict[str, str],
            placement: Optional[Dict[str, str]] = None,
            **kwargs) -> SystemSpec:
    """The placement :func:`deploy` would realise (conservative,
    zero-delay channels), as a picklable spec any executor loads:
    ``design_factory(*args, **kwargs)`` (a
    :func:`~repro.distributed.spec.resolve_factory` reference returning
    a :class:`Design`) is planned here and realised per subsystem by
    :func:`realise_from` wherever that subsystem runs."""
    design = resolve_factory(design_factory)(*args, **kwargs)
    homes, __, channels = plan(design, assignment, placement)
    spec = SystemSpec()
    for ss_name, node in homes.items():
        if node not in spec.nodes:
            spec.add_node(node)
        spec.add_subsystem(node, ss_name,
                           "repro.distributed.partition:realise_from",
                           design_factory, args, kwargs, assignment)
    for (root, other), nets in channels.values():
        spec.connect(root, other, nets=nets)
    return spec
