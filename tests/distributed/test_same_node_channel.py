"""A channel joins subsystems on two nodes.

Two subsystems on one node used to connect, and then the node's endpoint
map (channel id -> the first end added) handed every message on the
channel to the same end: with the producer added first, its own end
received its words and the run raised a conservative-channel violation;
with the consumer added first it ran.  A grant names no sender, so a
node could not tell its two ends' grants apart either.  ``connect``
refuses such a channel with one text, whatever the order, the
direction or the batching; the same pair on two nodes runs.
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.port import PortDirection
from repro.core.process import Advance, Receive, Send
from repro.core.component import FunctionComponent
from repro.core.subsystem import Subsystem
from repro.distributed import CoSimulation

REFUSED = "on one node"


def producer():
    def body(comp):
        for value in range(5):
            yield Advance(1.0)
            yield Send("out", value)

    comp = FunctionComponent("producer", body, ports={"out": "out"})
    subsystem = Subsystem("sa")
    subsystem.add(comp)
    subsystem.wire("w", comp.port("out"))
    return subsystem


def consumer(two_way):
    def body(comp):
        comp.got = []
        while True:
            t, value = yield Receive("in")
            comp.got.append((t, value))

    comp = FunctionComponent("consumer", body, ports={"in": "in"})
    if two_way:
        comp.port("in").direction = PortDirection.INOUT
    subsystem = Subsystem("sb")
    subsystem.add(comp)
    subsystem.wire("w", comp.port("in"))
    return subsystem


def pair(nodes, order, two_way, batching):
    cosim = CoSimulation(batching=batching)
    for name in sorted(set(nodes.values())):
        cosim.add_node(name)
    built = {"sa": producer(), "sb": consumer(two_way)}
    for name in order:
        cosim.add_subsystem(nodes[name], built[name])
    channel = cosim.connect(cosim.subsystem("sa"), cosim.subsystem("sb"))
    channel.split_net(built["sa"].net("w"), built["sb"].net("w"))
    return cosim


CELLS = [(order, two_way, batching)
         for order in (("sa", "sb"), ("sb", "sa"))
         for two_way in (False, True)
         for batching in (False, True)]


def cell_id(value):
    if isinstance(value, tuple):
        return "-then-".join(value)
    return None


@pytest.mark.parametrize("order, two_way, batching", CELLS, ids=cell_id)
def test_a_same_node_channel_is_refused_with_one_text(order, two_way,
                                                      batching):
    with pytest.raises(ConfigurationError, match=REFUSED):
        pair({"sa": "n", "sb": "n"}, order, two_way, batching)


@pytest.mark.parametrize("order, two_way, batching", CELLS, ids=cell_id)
def test_the_same_pair_on_two_nodes_runs(order, two_way, batching):
    cosim = pair({"sa": "na", "sb": "nb"}, order, two_way, batching)
    cosim.run()
    assert cosim.component("consumer").got == [
        (float(t), t - 1) for t in range(1, 6)]
