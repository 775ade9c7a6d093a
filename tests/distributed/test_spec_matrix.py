"""One system description, every executor: each workload topology is a
``SystemSpec`` and ``build(spec, executor)`` must give the cooperative
run's simulated behaviour in every workload x executor x batching cell.

The multiprocess cells share one warm ``WorkerPool`` so the whole matrix
pays one round of ``spawn``."""

import dataclasses
import pickle
import re
import time

import pytest

from repro.apps import WubbleUConfig, wubbleu_spec
from repro.bench.workloads import (
    compute_star,
    compute_star_spec,
    make_ring_stage,
    ring_of_pairs,
    ring_of_pairs_spec,
    streaming_pair,
    streaming_pair_spec,
)
from repro.core import Advance, FunctionComponent, Receive, Send
from repro.core.errors import SimulationError
from repro.distributed import (
    ChannelMode,
    CoSimulation,
    Design,
    ThreadedCoSimulation,
    WorkerPool,
    build,
    deploy,
)
from repro.distributed.partition import plan, realise, spec_of
from repro.transport.latency import LAN

SPECS = {
    "stream": lambda: streaming_pair_spec(40, 1.0),
    "ring": lambda: ring_of_pairs_spec(4, 12),
    "star": lambda: compute_star_spec(3, 5, words=50),
    "wubbleu": lambda: wubbleu_spec(
        WubbleUConfig(level="packet", total_bytes=8_000, image_count=1,
                      image_size=48), network=LAN),
}

#: executor cell -> (executor name, constructor arguments).
CELLS = {
    "cosim": ("cosim", {}),
    "threaded": ("threaded", {}),
    "multiprocess-tcp": ("multiprocess", {"transport": "tcp"}),
    "multiprocess-shm": ("multiprocess", {"transport": "shm"}),
}


@pytest.fixture(scope="module")
def pool():
    with WorkerPool() as shared:
        yield shared


def behaviour(cosim):
    """What distribution must not change: per-subsystem progress, every
    component's, net's and interface's row, what each channel end
    forwarded, injected and took as stragglers, and the signal traffic
    between nodes.  A channel end is named without its executor's id
    prefix (``ch``/``tch``/``mch``); safe-time requests are left out, as
    a synchronous request is two messages on top of the signals and how
    many are needed is the executor's business."""
    if isinstance(cosim, CoSimulation):
        cosim.run()
    else:
        cosim.run(timeout=90.0)
    report = cosim.report()
    requests = sum(row["safe_time_requests"] for row in report.subsystems)
    return (sorted((row["name"], row["time"], row["dispatched"])
                   for row in report.subsystems),
            report.components, report.nets, report.interfaces,
            [(re.sub(r"^[a-z]+", "", row["name"]), row["mode"],
              row["forwarded"], row["injected"], row["stragglers"])
             for row in report.channels],
            report.link_totals()["messages"] - 2 * requests)


@pytest.fixture(scope="module")
def reference():
    """The cooperative, unbatched cell of every workload."""
    return {name: behaviour(build(make())) for name, make in SPECS.items()}


@pytest.mark.parametrize("batching", [False, True],
                         ids=["unbatched", "batched"])
@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("workload", SPECS)
def test_cell_matches_the_cooperative_run(workload, cell, batching, pool,
                                          reference):
    executor, kwargs = CELLS[cell]
    if executor == "multiprocess":
        kwargs = dict(kwargs, pool=pool)
    cosim = build(SPECS[workload](), executor, batching=batching, **kwargs)
    assert behaviour(cosim) == reference[workload]


#: (workload, batching) -> (rounds, stalls, frames, bytes, safe-time
#: requests) of the cooperative cell, as recorded before the round became
#: work-driven (bytes re-recorded when a message's trace context shrank
#: to its ordinal and its parent's span).  All five follow from *who is
#: pumped when*: a node visited earlier or later than it used to be moves
#: at least one.
COOPERATIVE = {
    ("stream", False): (3, 0, 44, 3365, 2),
    ("stream", True): (5, 0, 4, 1118, 0),
    ("ring", False): (2, 0, 48, 2370, 6),
    ("ring", True): (4, 0, 10, 1354, 0),
    ("star", False): (11, 4, 90, 4387, 30),
    ("star", True): (9, 0, 39, 2812, 0),
    ("wubbleu", False): (18, 14, 63, 12845, 23),
    ("wubbleu", True): (19, 11, 29, 10984, 0),
}


@pytest.mark.parametrize("workload, batching", COOPERATIVE)
def test_cooperative_cell_keeps_its_visit_order(workload, batching):
    cosim = build(SPECS[workload](), batching=batching)
    cosim.run()
    totals = cosim.report().link_totals()
    assert (cosim.rounds, cosim.stalls(), totals["frames"], totals["bytes"],
            cosim.safe_time_requests()) == COOPERATIVE[workload, batching]


def make_slow_to_meet_peers(name, **kwargs):
    """A ring stage whose worker dawdles over the coordinator's ``peers``
    introduction (factories run in the worker process, so the patch stays
    there; the test uses a private pool and throws it away)."""
    from repro.transport.tcp import TcpTransport
    learn = TcpTransport.set_peer

    def set_peer(self, *args):
        time.sleep(0.2)
        return learn(self, *args)

    TcpTransport.set_peer = set_peer
    return make_ring_stage(name, **kwargs)


def test_no_worker_starts_before_every_worker_knows_its_peers(reference):
    # A middle stage serves its upstream neighbour's safe-time call by
    # asking its own downstream one, so it must know that address before
    # anyone is started: the coordinator waits for every worker to answer
    # a status probe queued behind the introduction.
    spec = SPECS["ring"]()
    slow = "tests.distributed.test_spec_matrix:make_slow_to_meet_peers"
    spec.nodes["n1"][0] = dataclasses.replace(spec.nodes["n1"][0],
                                              factory=slow)
    cosim = build(spec, "multiprocess", batching=False)
    try:
        assert behaviour(cosim) == reference["ring"]
    finally:
        cosim.close()


# ----------------------------------------------------------------------
# load() against the call-by-call API it is written over
# ----------------------------------------------------------------------
def by_hand(spec, **kwargs):
    """``spec`` realised call by call — ``add_node``/``add_subsystem``/
    ``connect`` on live objects, every net split by ``split_net``."""
    cosim = CoSimulation(**kwargs)
    for node, hosted in spec.nodes.items():
        cosim.add_node(node)
        for sspec in hosted:
            cosim.add_subsystem(node, sspec.build())
    for node_a, node_b, model in spec.links:
        cosim.set_link_model(node_a, node_b, model)
    for cs in spec.channels:
        a = cosim.subsystem(cs.subsystem_a)
        b = cosim.subsystem(cs.subsystem_b)
        channel = cosim.connect(a, b, mode=cs.mode, delay=cs.delay)
        for net in cs.nets:
            channel.split_net(a.nets[net], b.nets[net])
    return cosim


def document(cosim):
    # Snapshot ids are numbered per run, so two runs in one process
    # compare record for record.
    cosim.run()
    return cosim.report().to_dict(include_trace=True)


OPTIMISTIC = dict(mode=ChannelMode.OPTIMISTIC, consumer_work=20)

DOCUMENT_CASES = {
    "stream": (lambda: streaming_pair_spec(40, 1.0), {},
               lambda: streaming_pair(40, 1.0)),
    "stream-optimistic": (
        lambda: streaming_pair_spec(40, 1.0, **OPTIMISTIC),
        {"snapshot_interval": 5.0},
        lambda: streaming_pair(40, 1.0, snapshot_interval=5.0,
                               **OPTIMISTIC)),
    "ring": (lambda: ring_of_pairs_spec(4, 12), {},
             lambda: ring_of_pairs(4, 12)),
    "star": (lambda: compute_star_spec(3, 5, words=50), {"batching": True},
             lambda: compute_star(3, 5, words=50)),
    "star-unbatched": (
        lambda: compute_star_spec(3, 5, words=50), {},
        lambda: compute_star(3, 5, words=50, batching=False)),
}


@pytest.mark.parametrize("case", DOCUMENT_CASES)
def test_loaded_spec_reports_what_the_calls_report(case):
    make, kwargs, wrapper = DOCUMENT_CASES[case]
    loaded = document(build(make(), **kwargs))
    assert loaded == document(by_hand(make(), **kwargs))
    assert loaded == document(wrapper())


@pytest.mark.parametrize("workload", SPECS)
def test_spec_survives_pickling(workload, reference):
    clone = pickle.loads(pickle.dumps(SPECS[workload]()))
    assert behaviour(build(clone)) == reference[workload]


def test_load_only_attaches_that_nodes_endpoints():
    spec = compute_star_spec(2, 3, words=10)
    for node, hosted in (("n-hub", {"hub": 2}), ("n-w1", {"w1": 1})):
        system = ThreadedCoSimulation().load(spec, only=node)
        assert sorted(system.nodes) == [node]
        assert {name: len(ss.channels)
                for name, ss in system.subsystems.items()} == hosted
    spoke = system.subsystems["w1"].channels["tch2-hub-w1"]
    assert (spoke.peer_subsystem, spoke.peer_node) == ("hub", "n-hub")
    assert sorted(spoke._nets) == ["done1", "go1"]
    assert list(system.channels) == ["tch2-hub-w1"]


def test_optimistic_channel_refused_before_anything_runs():
    # Only the cooperative executor can roll back.  The threaded one says
    # so at ``load``; the multiprocess one at ``run``, before any worker
    # is spawned — its ``spec`` is public data, so a channel declared on
    # it directly is caught by the same check as a loaded one.
    spec = streaming_pair_spec(5, 1.0, mode=ChannelMode.OPTIMISTIC)
    with pytest.raises(SimulationError, match="conservative channels only"):
        build(spec, "threaded")
    direct = build(streaming_pair_spec(5, 1.0), "multiprocess")
    direct.spec.channels.clear()
    direct.spec.connect("z-producer", "a-consumer", nets=("stream",),
                        mode=ChannelMode.OPTIMISTIC)
    for cosim in (build(spec, "multiprocess"), direct):
        with pytest.raises(SimulationError,
                           match="conservative channels only"):
            cosim.run(timeout=30.0)
        assert cosim._own_pool is None


# ----------------------------------------------------------------------
# partition.deploy / spec_of: one plan, taps made channel by channel
# ----------------------------------------------------------------------
def relay_design(extra=False):
    """A driver whose net spans three subsystems (rooted at ``r``, which
    holds two of its endpoints, relaying to ``p`` and ``q``); ``extra``
    adds a net sorting before it that needs the ``q`` channel first."""
    def source(values):
        def behave(comp):
            for value in values:
                yield Advance(1.0)
                yield Send("out", value)
        return behave

    def sink(count):
        def behave(comp):
            comp.got = []
            for __ in range(count):
                comp.got.append((yield Receive("in")))
        return behave

    design = Design("relay")
    design.add(FunctionComponent("src", source([4, 2]), ports={"out": "out"}))
    for name in ("d0", "d1", "d2"):
        design.add(FunctionComponent(name, sink(2), ports={"in": "in"}))
    design.connect("bus", ("src", "out"), ("d0", "in"), ("d1", "in"),
                   ("d2", "in"))
    if extra:
        design.add(FunctionComponent("s2", source([7]), ports={"out": "out"}))
        design.add(FunctionComponent("k2", sink(1), ports={"in": "in"}))
        design.connect("aux", ("s2", "out"), ("k2", "in"))
    return design


RELAY = {"src": "r", "d0": "r", "d1": "p", "d2": "q"}
RELAY_EXTRA = dict(RELAY, s2="r", k2="q")


def net_by_net(design, assignment):
    """The placement realised the way ``deploy`` was first written: nets
    in name order, each split across its spans by ``split_net``, a
    channel created when a net first needs it."""
    cosim = CoSimulation()
    homes, splits, channels = plan(design, assignment)
    subs = {name: cosim.add_subsystem(cosim.add_node(node),
                                      realise(design, assignment, name))
            for name, node in homes.items()}
    made = {}
    for net, spans in sorted(splits.items()):
        root = next(root for (root, __), nets in channels.values()
                    if net in nets)
        for other in spans:
            if other != root:
                if (root, other) not in made:
                    made[root, other] = cosim.connect(subs[root], subs[other])
                made[root, other].split_net(subs[root].nets[net],
                                            subs[other].nets[net])
    return cosim


def deployed(design, assignment):
    cosim = CoSimulation()
    deploy(design, assignment, cosim)
    return cosim


def test_three_subsystem_deploy_matches_net_by_net_split():
    assert document(deployed(relay_design(), RELAY)) \
        == document(net_by_net(relay_design(), RELAY))


def test_shared_half_net_is_tapped_in_channel_order():
    # The narrower guarantee: with ``aux`` creating the ``q`` channel
    # first, the root's ``bus`` half forwards to ``q`` before ``p`` where
    # the net-by-net realisation forwarded to ``p`` first.  Behaviour is
    # the same; same-instant trace records swap.  ``deploy`` and
    # ``spec_of`` follow the one rule, so they agree record for record.
    live = deployed(relay_design(True), RELAY_EXTRA)
    assert list(live.channels) == ["ch1-r-q", "ch2-r-p"]
    spec = spec_of("tests.distributed.test_spec_matrix:relay_design", True,
                   assignment=RELAY_EXTRA)
    assert document(live) == document(build(spec))
    old = net_by_net(relay_design(True), RELAY_EXTRA)
    assert behaviour(old) == behaviour(build(spec))
    assert old.component("d1").got == live.component("d1").got \
        == [(1.0, 4), (2.0, 2)]


def test_unknown_executor():
    with pytest.raises(ValueError, match="unknown executor"):
        build(compute_star_spec(1, 1), "quantum")
