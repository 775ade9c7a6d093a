"""Property-based equivalence: distribution must never change behaviour.

The framework's core promise is that splitting a design across subsystems,
nodes and synchronization modes is *transparent*: the simulated system
behaves identically.  Hypothesis generates random pipeline/fan-out
workloads and random partitions; every placement — single host,
conservative split, optimistic split, conservative split on a thread
per node — must produce the identical observable trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Advance,
    FunctionComponent,
    PortDirection,
    ProcessComponent,
    Receive,
    Send,
    Simulator,
)
from repro.distributed import (
    ChannelMode,
    CoSimulation,
    Design,
    ThreadedCoSimulation,
    deploy,
)

# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------


class Source(ProcessComponent):
    def __init__(self, name, values, period):
        super().__init__(name)
        self.values = list(values)
        self.period = period
        self.add_port("out", PortDirection.OUT)

    def run(self):
        for value in self.values:
            yield Advance(self.period)
            yield Send("out", value)


class Stage(ProcessComponent):
    """Transforms and forwards; the transform depends on its name so each
    stage is distinguishable."""

    def __init__(self, name, delay):
        super().__init__(name)
        self.delay = delay
        self.add_port("in", PortDirection.IN)
        self.add_port("out", PortDirection.OUT)

    def run(self):
        while True:
            t, value = yield Receive("in")
            yield Advance(self.delay)
            yield Send("out", (value * 3 + len(self.name)) % 1009)


class Sink(ProcessComponent):
    def __init__(self, name, count):
        super().__init__(name)
        self.count = count
        self.trace = []
        self.add_port("in", PortDirection.IN)

    def run(self):
        for __ in range(self.count):
            t, value = yield Receive("in")
            self.trace.append((round(t, 9), value))


def build_design(values, stage_delays):
    design = Design("pipeline")
    design.add(Source("src", values, 1.0))
    previous = ("src", "out")
    for index, delay in enumerate(stage_delays):
        name = f"stage{index}"
        design.add(Stage(name, delay))
        design.connect(f"net{index}", previous, (name, "in"))
        previous = (name, "out")
    design.add(Sink("sink", len(values)))
    design.connect("netZ", previous, ("sink", "in"))
    return design


def run_placement(values, stage_delays, assignment, mode, *,
                  threaded=False):
    design = build_design(values, stage_delays)
    if threaded:
        cosim = ThreadedCoSimulation()
    else:
        cosim = CoSimulation(
            snapshot_interval=3.0 if mode is ChannelMode.OPTIMISTIC
            else None)
    deployment = deploy(design, assignment, cosim, mode=mode)
    cosim.run()
    return deployment.subsystems[assignment["sink"]] \
        .components["sink"].trace


values_strategy = st.lists(st.integers(min_value=0, max_value=999),
                           min_size=1, max_size=6)
delays_strategy = st.lists(
    st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]), min_size=1, max_size=4)


def component_names(stage_count):
    return ["src"] + [f"stage{i}" for i in range(stage_count)] + ["sink"]


@st.composite
def workload_and_partition(draw):
    values = draw(values_strategy)
    delays = draw(delays_strategy)
    names = component_names(len(delays))
    homes = draw(st.lists(st.sampled_from(["a", "b"]),
                          min_size=len(names), max_size=len(names)))
    assignment = dict(zip(names, homes))
    return values, delays, assignment


class TestPlacementEquivalence:
    @given(workload_and_partition())
    @settings(max_examples=25, deadline=None)
    def test_conservative_split_matches_single_host(self, case):
        values, delays, assignment = case
        single = {name: "solo" for name in assignment}
        reference = run_placement(values, delays, single,
                                  ChannelMode.CONSERVATIVE)
        split = run_placement(values, delays, assignment,
                              ChannelMode.CONSERVATIVE)
        assert split == reference

    @given(workload_and_partition())
    @settings(max_examples=25, deadline=None)
    def test_threaded_conservative_split_matches_single_host(self, case):
        values, delays, assignment = case
        single = {name: "solo" for name in assignment}
        reference = run_placement(values, delays, single,
                                  ChannelMode.CONSERVATIVE)
        split = run_placement(values, delays, assignment,
                              ChannelMode.CONSERVATIVE, threaded=True)
        assert split == reference

    @given(workload_and_partition())
    @settings(max_examples=12, deadline=None)
    def test_optimistic_split_matches_single_host(self, case):
        values, delays, assignment = case
        single = {name: "solo" for name in assignment}
        reference = run_placement(values, delays, single,
                                  ChannelMode.CONSERVATIVE)
        split = run_placement(values, delays, assignment,
                              ChannelMode.OPTIMISTIC)
        assert split == reference

    @given(workload_and_partition())
    @settings(max_examples=10, deadline=None)
    def test_distributed_runs_are_deterministic(self, case):
        values, delays, assignment = case
        first = run_placement(values, delays, assignment,
                              ChannelMode.CONSERVATIVE)
        second = run_placement(values, delays, assignment,
                               ChannelMode.CONSERVATIVE)
        assert first == second


class TestCheckpointEquivalence:
    @given(values_strategy, delays_strategy,
           st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=15, deadline=None)
    def test_restore_and_rerun_matches_straight_run(self, values, delays,
                                                    checkpoint_at):
        """For any workload, interrupting at any point with a checkpoint,
        running on, rewinding and re-running yields the straight-run
        trace."""
        design = build_design(values, delays)
        sim = Simulator()
        for component in design.components.values():
            sim.add(component)
        for spec in design.nets.values():
            ports = [design.components[c].port(p) for c, p in spec.endpoints]
            sim.wire(spec.name, *ports)
        sink = sim.component("sink")

        sim.run(until=checkpoint_at)
        cid = sim.checkpoint()
        sim.run()
        straight = list(sink.trace)
        sim.restore(cid)
        sim.run()
        assert sink.trace == straight
