"""Validation of the subsystem interconnection graph (paper 2.2.2.1).

"A set of interconnected subsystems must make a directed graph with only
simple cycles.  A simple cycle is simply a bidirectional edge.  The reason
for this is that it is computationally hard to eliminate self-restriction
on the fly for general graphs."

The safe-time protocol removes only the *requester's* restriction when
granting; a longer directed cycle would let a subsystem restrict itself
through intermediaries and deadlock.  We therefore require that, after
collapsing every mutual pair of edges, the remaining directed graph is
acyclic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import networkx as nx

from ..core.errors import TopologyError
from .channel import Channel


def communication_digraph(channels: Iterable[Channel]) -> "nx.DiGraph":
    """Directed subsystem graph: an edge A->B when A's end of some
    channel between them can send and B's listens.

    Direction is :attr:`ChannelEndpoint.sends` / ``listens`` — the same
    fact the safe-time protocol grants on — so a relay (a half-net with
    no visible port, tapped by two channels) is both a listener and a
    sender.
    """
    graph = nx.DiGraph()
    for channel in channels:
        endpoints = list(channel.endpoints.values())
        if len(endpoints) != 2:
            continue
        a, b = endpoints
        graph.add_node(a.subsystem.name)
        graph.add_node(b.subsystem.name)
        for src, dst in ((a, b), (b, a)):
            if src.sends and dst.listens:
                graph.add_edge(src.subsystem.name, dst.subsystem.name)
    return graph


def offending_cycles(graph: "nx.DiGraph") -> List[List[str]]:
    """Directed cycles longer than a bidirectional pair.

    Subsystem graphs are small (a handful of hosts), so enumerating the
    elementary cycles directly is fine.
    """
    return [cycle for cycle in nx.simple_cycles(graph) if len(cycle) > 2]


def validate(channels: Iterable[Channel]) -> "nx.DiGraph":
    """Raise :class:`TopologyError` if the interconnection is illegal."""
    graph = communication_digraph(channels)
    bad = offending_cycles(graph)
    if bad:
        rendered = "; ".join(" -> ".join(cycle + [cycle[0]]) for cycle in bad)
        raise TopologyError(
            f"subsystem graph contains non-simple cycles: {rendered}. "
            "Pia requires a directed graph with only simple (bidirectional) "
            "cycles — repartition the design or merge subsystems.")
    return graph
