"""Net splitting by graph cut, partition suggestion, topology rules."""

import json
import subprocess
import sys

import pytest

from repro.core import (
    Advance,
    ConfigurationError,
    FunctionComponent,
    PortDirection,
    Receive,
    Send,
    TopologyError,
)
from repro.distributed import (
    ChannelMode,
    CoSimulation,
    Design,
    deploy,
    suggest_partition,
)
from repro.distributed import topology
from tests.examples.test_examples_run import _example_env


def _source(values):
    def behave(comp):
        for v in values:
            yield Advance(1.0)
            yield Send("out", v)
    return behave


def _sink(count):
    def behave(comp):
        comp.got = []
        for __ in range(count):
            t, v = yield Receive("in")
            comp.got.append((t, v))
    return behave


def simple_design(values=(1, 2, 3)):
    design = Design("d")
    design.add(FunctionComponent("src", _source(list(values)),
                                 ports={"out": "out"}))
    design.add(FunctionComponent("dst", _sink(len(values)),
                                 ports={"in": "in"}))
    design.connect("wire", ("src", "out"), ("dst", "in"))
    return design


class TestDesign:
    def test_duplicate_component_rejected(self):
        design = simple_design()
        with pytest.raises(ConfigurationError):
            design.add(FunctionComponent("src", _source([])))

    def test_connect_unknown_component(self):
        design = simple_design()
        with pytest.raises(ConfigurationError):
            design.connect("w2", ("ghost", "out"))

    def test_connect_unknown_port(self):
        design = simple_design()
        with pytest.raises(ConfigurationError):
            design.connect("w2", ("src", "nope"))

    def test_cut_nets(self):
        design = simple_design()
        assert design.cut_nets({"src": "a", "dst": "a"}) == []
        assert design.cut_nets({"src": "a", "dst": "b"}) == ["wire"]

    def test_component_graph_weights(self):
        design = simple_design()
        graph = design.component_graph(weights={"wire": 5.0})
        assert graph["src"]["dst"] == 5.0


class TestDeploy:
    def test_local_placement_runs(self):
        design = simple_design()
        cosim = CoSimulation()
        deploy(design, {"src": "only", "dst": "only"}, cosim)
        cosim.run()
        assert cosim.component("dst").got == [(1.0, 1), (2.0, 2), (3.0, 3)]
        assert not cosim.channels    # nothing split

    def test_split_placement_runs_identically(self):
        design = simple_design()
        cosim = CoSimulation()
        deployment = deploy(design, {"src": "a", "dst": "b"}, cosim)
        assert deployment.splits == {"wire": ["a", "b"]}
        cosim.run()
        assert cosim.component("dst").got == [(1.0, 1), (2.0, 2), (3.0, 3)]

    def test_missing_assignment_rejected(self):
        design = simple_design()
        with pytest.raises(ConfigurationError):
            deploy(design, {"src": "a"}, CoSimulation())

    def test_hidden_ports_introduced_only_on_split(self):
        design = simple_design()
        cosim = CoSimulation()
        deploy(design, {"src": "a", "dst": "b"}, cosim)
        ss_a = cosim.subsystem("a")
        hidden = [p for net in ss_a.nets.values() for p in net.ports
                  if p.hidden]
        assert len(hidden) == 1

    def test_three_way_net_star_relay(self):
        """A net spanning three subsystems relays through the root without
        duplicate deliveries."""
        design = Design()
        design.add(FunctionComponent("src", _source([42]),
                                     ports={"out": "out"}))
        design.add(FunctionComponent("d1", _sink(1), ports={"in": "in"}))
        design.add(FunctionComponent("d2", _sink(1), ports={"in": "in"}))
        design.connect("bus", ("src", "out"), ("d1", "in"), ("d2", "in"))
        cosim = CoSimulation()
        deployment = deploy(design, {"src": "a", "d1": "b", "d2": "c"}, cosim)
        assert deployment.splits["bus"] == ["a", "b", "c"]
        cosim.run()
        assert cosim.component("d1").got == [(1.0, 42)]
        assert cosim.component("d2").got == [(1.0, 42)]

    def test_no_pass_through_subsystems(self):
        """The global view: a net between a and c must not touch b."""
        design = Design()
        design.add(FunctionComponent("src", _source([1]),
                                     ports={"out": "out"}))
        design.add(FunctionComponent("dst", _sink(1), ports={"in": "in"}))
        design.add(FunctionComponent("bystander", _source([]),
                                     ports={"out": "out"}))
        design.connect("wire", ("src", "out"), ("dst", "in"))
        cosim = CoSimulation()
        deploy(design, {"src": "a", "bystander": "b", "dst": "c"}, cosim)
        assert "wire" not in cosim.subsystem("b").nets

    def test_placement_maps_subsystems_to_nodes(self):
        design = simple_design()
        cosim = CoSimulation()
        deploy(design, {"src": "a", "dst": "b"}, cosim,
               placement={"a": "seattle", "b": "boston"})
        assert set(cosim.nodes) == {"seattle", "boston"}


class TestSuggestPartition:
    def test_bisection_balances_and_separates(self):
        design = Design()
        # two tightly coupled clusters joined by one thin wire
        for cluster, names in (("l", ["l0", "l1", "l2"]),
                               ("r", ["r0", "r1", "r2"])):
            for name in names:
                comp = FunctionComponent(name, _source([]))
                comp.add_port("p", PortDirection.INOUT)
                comp.add_port("q", PortDirection.INOUT)
                design.add(comp)
        design.connect("lc1", ("l0", "p"), ("l1", "p"))
        design.connect("lc2", ("l1", "q"), ("l2", "p"))
        design.connect("lc3", ("l0", "q"), ("l2", "q"))
        design.connect("rc1", ("r0", "p"), ("r1", "p"))
        design.connect("rc2", ("r1", "q"), ("r2", "p"))
        design.connect("rc3", ("r0", "q"), ("r2", "q"))
        design.connect("thin", ("l0", "p"), ("r0", "p"))
        assignment = suggest_partition(design, seed=1)
        homes = {assignment[n] for n in ["l0", "l1", "l2"]}
        assert len(homes) == 1
        other = {assignment[n] for n in ["r0", "r1", "r2"]}
        assert len(other) == 1
        assert homes != other

    def test_single_component(self):
        design = Design()
        design.add(FunctionComponent("only", _source([])))
        assert suggest_partition(design) == {"only": "ss0"}

    @pytest.mark.parametrize("fixture", ["clusters", "weighted_ring"])
    def test_cut_is_no_heavier_than_the_networkx_oracle(self, fixture):
        nx = pytest.importorskip("networkx")
        design, weights = ring_design(fixture == "clusters")
        graph = design.component_graph(weights=weights)
        oracle = nx.Graph()
        oracle.add_nodes_from(graph)
        for a, row in graph.items():
            for b, weight in row.items():
                oracle.add_edge(a, b, weight=weight)
        for seed in range(5):
            assignment = suggest_partition(design, weights=weights, seed=seed)
            ours = [a for a in graph if assignment[a] == "ss0"]
            theirs, __ = nx.algorithms.community.kernighan_lin_bisection(
                oracle, weight="weight", seed=seed)
            assert len(ours) == 3 and assignment[min(graph)] == "ss0"
            assert _cut(graph, ours) <= _cut(graph, theirs)
            assert _cut(graph, ours) == 2.0

    def test_same_answer_whatever_the_hash_seed(self):
        """Component names are strings, so anything walked in set order
        would move with ``PYTHONHASHSEED``."""
        answers = []
        for hash_seed in ("0", "1", "random"):
            env = dict(_example_env(), PYTHONHASHSEED=hash_seed)
            done = subprocess.run([sys.executable, "-c", _WUBBLEU_CUT],
                                  env=env, capture_output=True, text=True,
                                  timeout=60, check=True)
            answers.append(json.loads(done.stdout))
        assert answers[0] == answers[1] == answers[2]
        homes = list(answers[0].values())
        assert abs(homes.count("ss0") - homes.count("ss1")) <= 1
        assert answers[0]["Browser"] == "ss0"


#: The auto-cut of ``examples/distributed_codesign.py`` (seven components).
_WUBBLEU_CUT = """
import json
from repro.apps import WubbleUConfig, build_design
from repro.distributed import suggest_partition
design, __ = build_design(WubbleUConfig(total_bytes=12_000, image_count=2,
                                        image_size=48))
print(json.dumps(suggest_partition(design, weights={
    "bus_fwd": 0.5, "bus_bwd": 0.5, "air_fwd": 5.0, "air_bwd": 5.0})))
"""


def ring_design(clusters):
    """Six components in a ring of nets ``n0``..``n5`` (``n{i}`` joins
    ``c{i}`` to its successor).  As ``clusters`` every net weighs 1 and
    two chords make ``c0 c1 c2`` and ``c3 c4 c5`` triangles; otherwise
    the weights alone say where to cut (``n1`` and ``n4``)."""
    design = Design()
    for index in range(6):
        comp = FunctionComponent(f"c{index}", _source([]))
        for port in "pqr":
            comp.add_port(port, PortDirection.INOUT)
        design.add(comp)
    for index in range(6):
        design.connect(f"n{index}", (f"c{index}", "p"),
                       (f"c{(index + 1) % 6}", "q"))
    if clusters:
        design.connect("chord-l", ("c0", "r"), ("c2", "r"))
        design.connect("chord-r", ("c3", "r"), ("c5", "r"))
        return design, None
    return design, {"n0": 5.0, "n1": 1.0, "n2": 5.0,
                    "n3": 5.0, "n4": 1.0, "n5": 5.0}


def _cut(graph, half):
    return sum(weight for a in half for b, weight in graph[a].items()
               if b not in half)


class TestTopologyRules:
    def _chain(self, edges, directed_pairs):
        """Build a cosim with given subsystem edges; directed_pairs maps
        (a, b) -> True if traffic flows a->b only."""
        cosim = CoSimulation()
        subsystems = {}

        def get_ss(name):
            if name not in subsystems:
                subsystems[name] = cosim.add_subsystem(
                    cosim.add_node(f"n{name}"), name)
            return subsystems[name]

        made = []
        for a, b in edges:
            ss_a, ss_b = get_ss(a), get_ss(b)
            src = FunctionComponent(f"src-{a}{b}", _source([]),
                                    ports={"out": "out"})
            dst = FunctionComponent(f"dst-{a}{b}", _sink(0),
                                    ports={"in": "in"})
            ss_a.add(src)
            ss_b.add(dst)
            channel = cosim.connect(ss_a, ss_b)
            channel.split_net(ss_a.wire(f"w{a}{b}", src.port("out")),
                              ss_b.wire(f"w{a}{b}", dst.port("in")))
            made.append(channel)
        return cosim

    def test_pair_is_legal(self):
        cosim = self._chain([("a", "b"), ("b", "a")], {})
        cosim.validate_topology()   # no raise

    def test_three_cycle_rejected(self):
        cosim = self._chain([("a", "b"), ("b", "c"), ("c", "a")], {})
        with pytest.raises(TopologyError):
            cosim.validate_topology()

    def test_tree_is_legal(self):
        cosim = self._chain([("a", "b"), ("a", "c"), ("c", "d")], {})
        edges = cosim.validate_topology()
        assert {name for edge in edges for name in edge} == {
            "a", "b", "c", "d"}

    def test_run_validates_topology(self):
        cosim = self._chain([("a", "b"), ("b", "c"), ("c", "a")], {})
        with pytest.raises(TopologyError):
            cosim.run()
