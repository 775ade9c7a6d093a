"""Validation of the subsystem interconnection graph (paper 2.2.2.1).

"A set of interconnected subsystems must make a directed graph with only
simple cycles.  A simple cycle is simply a bidirectional edge.  The reason
for this is that it is computationally hard to eliminate self-restriction
on the fly for general graphs."

The safe-time protocol removes only the *requester's* restriction when
granting; a longer directed cycle would let a subsystem restrict itself
through intermediaries and deadlock.  We therefore refuse every
elementary directed cycle longer than a mutual pair of edges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..core.errors import TopologyError
from .channel import Channel


def communication_edges(channels: Iterable[Channel]) -> List[Tuple[str, str]]:
    """Directed subsystem edges, sorted: A->B when A's end of some
    channel between them can send and B's listens.

    Direction is :attr:`ChannelEndpoint.sends` / ``listens`` — the same
    fact the safe-time protocol grants on — so a relay (a half-net with
    no visible port, tapped by two channels) is both a listener and a
    sender.
    """
    edges: Set[Tuple[str, str]] = set()
    for channel in channels:
        endpoints = list(channel.endpoints.values())
        if len(endpoints) != 2:
            continue
        a, b = endpoints
        for src, dst in ((a, b), (b, a)):
            if src.sends and dst.listens:
                edges.add((src.subsystem.name, dst.subsystem.name))
    return sorted(edges)


def offending_cycles(edges: Iterable[Tuple[str, str]]) -> List[List[str]]:
    """Elementary directed cycles longer than a bidirectional pair.

    Each cycle is listed once, from its smallest vertex, and the list is
    sorted, so the error text does not depend on declaration order.
    Subsystem graphs are small (a handful of hosts), so walking the
    elementary cycles directly is fine.
    """
    succ: Dict[str, List[str]] = {}
    for src, dst in sorted(set(edges)):
        succ.setdefault(src, []).append(dst)
    cycles: List[List[str]] = []

    def walk(path: List[str], homeward: Set[str]) -> None:
        for vertex in succ.get(path[-1], ()):
            if vertex == path[0]:
                if len(path) > 2:
                    cycles.append(path)
            elif vertex in homeward and vertex not in path:
                walk(path + [vertex], homeward)

    for start in sorted(succ):
        # A cycle whose smallest vertex is ``start`` stays among the later
        # vertices that can lead back to it; walking only those makes a
        # legal graph cost a tree walk instead of every path of a DAG.
        homeward = grown = {start}
        while grown:
            grown = {vertex for vertex in succ
                     if vertex > start and vertex not in homeward
                     and not grown.isdisjoint(succ[vertex])}
            homeward = homeward | grown
        walk([start], homeward)
    return cycles


def validate(edges: Iterable[Tuple[str, str]]) -> None:
    """Raise :class:`TopologyError` if the interconnection is illegal."""
    bad = offending_cycles(edges)
    if bad:
        rendered = "; ".join(" -> ".join(cycle + [cycle[0]]) for cycle in bad)
        raise TopologyError(
            f"subsystem graph contains non-simple cycles: {rendered}. "
            "Pia requires a directed graph with only simple (bidirectional) "
            "cycles — repartition the design or merge subsystems.")
