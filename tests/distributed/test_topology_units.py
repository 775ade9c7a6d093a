"""Direct unit tests of the topology analyser (paper 2.2.2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FunctionComponent,
    Receive,
    Send,
    Subsystem,
    TopologyError,
)
from repro.distributed import MultiprocessCoSimulation, SystemSpec, build
from repro.distributed.topology import offending_cycles

_HERE = "tests.distributed.test_topology_units:"


def graph(*edges):
    return list(edges)


class TestOffendingCycles:
    def test_dag_is_clean(self):
        assert offending_cycles(graph(("a", "b"), ("b", "c"),
                                      ("a", "c"))) == []

    def test_bidirectional_pair_allowed(self):
        assert offending_cycles(graph(("a", "b"), ("b", "a"))) == []

    def test_three_cycle_flagged(self):
        bad = offending_cycles(graph(("a", "b"), ("b", "c"), ("c", "a")))
        assert len(bad) == 1
        assert set(bad[0]) == {"a", "b", "c"}

    def test_cycle_through_mutual_edge_still_flagged(self):
        """A 3-cycle that borrows one leg from a bidirectional pair is
        still a non-simple cycle: the safe-time self-restriction removal
        cannot break it."""
        g = graph(("a", "b"), ("b", "a"),       # simple cycle (fine)
                  ("b", "c"), ("c", "a"))       # ...but a->b->c->a exists
        bad = offending_cycles(g)
        assert any(set(cycle) == {"a", "b", "c"} for cycle in bad)

    def test_two_disjoint_pairs(self):
        g = graph(("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"))
        assert offending_cycles(g) == []

    def test_long_cycle(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        assert len(offending_cycles(graph(*edges))) == 1

    def test_reported_from_the_smallest_vertex_in_sorted_order(self):
        """Two 3-cycles and the 4-cycle around them, declared backwards:
        the report does not depend on declaration order."""
        edges = [("d", "a"), ("d", "b"), ("c", "d"), ("c", "a"),
                 ("b", "c"), ("b", "a"), ("a", "b")]
        assert offending_cycles(edges) == [
            ["a", "b", "c"], ["a", "b", "c", "d"], ["b", "c", "d"]]

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.tuples(st.sampled_from("abcdefg"),
                             st.sampled_from("abcdefg"))))
    def test_agrees_with_networkx_on_small_digraphs(self, edges):
        nx = pytest.importorskip("networkx")
        ours = offending_cycles(edges)
        assert all(cycle[0] == min(cycle) for cycle in ours)
        assert ours == sorted(ours)
        theirs = [c for c in nx.simple_cycles(nx.DiGraph(list(edges)))
                  if len(c) > 2]
        assert sorted(map(_from_smallest, theirs)) == ours


def _from_smallest(cycle):
    at = cycle.index(min(cycle))
    return cycle[at:] + cycle[:at]


def make_relay(name, *, listens, drives):
    """One component passing what arrives on net ``listens`` to net
    ``drives``."""

    def relay(comp):
        while True:
            __, value = yield Receive("in")
            yield Send("out", value)

    comp = FunctionComponent("relay", relay, ports={"in": "in", "out": "out"})
    subsystem = Subsystem(name)
    subsystem.add(comp)
    subsystem.wire(listens, comp.port("in"))
    subsystem.wire(drives, comp.port("out"))
    return subsystem


def relay_spec(names, links):
    """Subsystem ``names[i]`` listens on ``w{i}`` and drives ``w{i+1}``
    (wrapping); ``links`` are the ``(i, j)`` pairs joined by a channel
    carrying the net ``names[i]`` drives."""
    spec = SystemSpec()
    for index, name in enumerate(names):
        spec.add_subsystem(spec.add_node(f"n-{name}"), name,
                           _HERE + "make_relay", listens=f"w{index}",
                           drives=f"w{(index + 1) % len(names)}")
    for i, j in links:
        spec.connect(names[i], names[j], nets=(f"w{(i + 1) % len(names)}",))
    return spec


class TestSpecSide:
    """The multiprocess coordinator sees names, not port directions: it
    holds the same rule on both directions of every spec channel."""

    def test_forest_and_two_way_pair_pass(self):
        forest = SystemSpec()
        for name in "abcdef":
            forest.add_subsystem(forest.add_node(f"n-{name}"), name, "unused")
        for a, b in ("ab", "ac", "cd", "ef"):
            forest.connect(a, b)
        build(forest, "multiprocess")._check_topology()
        pair = relay_spec(["a", "b"], [(0, 1), (1, 0)])
        build(pair, "multiprocess")._check_topology()
        build(pair, "cosim").validate_topology()

    def test_triangle_is_refused_in_the_same_words_before_any_spawn(
            self, monkeypatch):
        spec = relay_spec(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
        text = "non-simple cycles: a -> b -> c -> a"
        with pytest.raises(TopologyError, match=text):
            build(spec, "cosim").run()

        def spawned(self):
            raise AssertionError("a worker pool was asked for")

        monkeypatch.setattr(MultiprocessCoSimulation, "_acquire_pool", spawned)
        with pytest.raises(TopologyError, match=text):
            build(spec, "multiprocess").run(until=1.0)


class TestCheckpointPrimitives:
    """Direct capture/reinstate coverage, including net state."""

    def test_net_values_roundtrip(self):
        from repro.core import (Advance, FunctionComponent, Receive, Send,
                                Subsystem)
        from repro.core.checkpoint import capture, reinstate

        subsystem = Subsystem("ss")

        def pulse(comp):
            yield Advance(1.0)
            yield Send("out", 0xAB)
            yield Advance(1.0)
            yield Send("out", 0xCD)

        def sink(comp):
            while True:
                yield Receive("in")

        p = FunctionComponent("p", pulse, ports={"out": "out"})
        c = FunctionComponent("c", sink, ports={"in": "in"})
        subsystem.add(p)
        subsystem.add(c)
        net = subsystem.wire("sig", p.port("out"), c.port("in"))
        subsystem.run(until=1.0)
        image = capture(subsystem, checkpoint_id=7, label="probe")
        assert image.nets["sig"].posts == 2      # producer ran ahead
        value_at_capture = net.value
        subsystem.run()
        net.value = "corrupted"
        net.posts = 999
        reinstate(subsystem, image)
        assert net.value == value_at_capture
        assert net.posts == 2
        assert subsystem.now == 1.0
        subsystem.run()
        assert net.value == 0xCD
