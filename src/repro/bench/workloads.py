"""Reusable synthetic workloads for the ablation benchmarks."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core.component import FunctionComponent
from ..core.process import Advance, Receive, Send, WaitUntil
from ..core.subsystem import Subsystem
from ..distributed.channel import ChannelMode
from ..distributed.executor import CoSimulation
from ..distributed.multiprocess import MultiprocessCoSimulation
from ..distributed.threaded import ThreadedCoSimulation
from ..transport.latency import SAME_HOST, LatencyModel


def streaming_pair(message_count: int, period: float, *,
                   mode: ChannelMode = ChannelMode.CONSERVATIVE,
                   consumer_work: float = 0.0,
                   snapshot_interval: Optional[float] = None,
                   network: LatencyModel = SAME_HOST,
                   channel_delay: float = 0.0) -> CoSimulation:
    """A producer streaming to a consumer across two nodes.

    ``consumer_work`` gives the consumer's subsystem private busy-work so
    that, under optimism, it runs ahead and stragglers occur (the consumer
    subsystem is named to be scheduled first).
    """
    cosim = CoSimulation(snapshot_interval=snapshot_interval)
    ss_cons = cosim.add_subsystem(cosim.add_node("n-cons"), "a-consumer")
    ss_prod = cosim.add_subsystem(cosim.add_node("n-prod"), "z-producer")
    cosim.set_link_model("n-cons", "n-prod", network)

    def produce(comp):
        for index in range(message_count):
            yield Advance(period)
            yield Send("out", index)

    def consume(comp):
        comp.received = []
        for __ in range(message_count):
            t, value = yield Receive("in")
            comp.received.append((t, value))

    producer = FunctionComponent("producer", produce, ports={"out": "out"})
    consumer = FunctionComponent("consumer", consume, ports={"in": "in"})
    ss_prod.add(producer)
    ss_cons.add(consumer)

    if consumer_work > 0:
        def busy(comp):
            while comp.local_time < consumer_work:
                yield WaitUntil(comp.local_time + period)
                yield Send("tick", 1)

        def busy_sink(comp):
            while True:
                yield Receive("in")

        ticker = FunctionComponent("busy", busy, ports={"tick": "out"})
        sink = FunctionComponent("busysink", busy_sink, ports={"in": "in"})
        ss_cons.add(ticker)
        ss_cons.add(sink)
        ss_cons.wire("busyline", ticker.port("tick"), sink.port("in"))

    channel = cosim.connect(ss_prod, ss_cons, mode=mode, delay=channel_delay)
    channel.split_net(ss_prod.wire("stream", producer.port("out")),
                      ss_cons.wire("stream", consumer.port("in")))
    return cosim


def ring_of_pairs(subsystem_count: int, messages_each: int,
                  *, period: float = 1.0) -> CoSimulation:
    """A chain of subsystems, each streaming to the next (no long cycles,
    honouring the simple-cycle topology rule)."""
    cosim = CoSimulation()
    subsystems = []
    for index in range(subsystem_count):
        node = cosim.add_node(f"n{index}")
        subsystems.append(cosim.add_subsystem(node, f"ss{index:02d}"))

    def relay(last: bool):
        def behave(comp):
            comp.seen = 0
            while True:
                t, value = yield Receive("in")
                comp.seen += 1
                if not last:
                    yield Advance(period / 10)
                    yield Send("out", value)
        return behave

    def source(comp):
        for index in range(messages_each):
            yield Advance(period)
            yield Send("out", index)

    head = FunctionComponent("c0", source, ports={"out": "out"})
    subsystems[0].add(head)
    previous_port = head.port("out")
    previous_ss = subsystems[0]
    for index in range(1, subsystem_count):
        last = index == subsystem_count - 1
        ports = {"in": "in"} if last else {"in": "in", "out": "out"}
        comp = FunctionComponent(f"c{index}", relay(last), ports=ports)
        subsystems[index].add(comp)
        channel = cosim.connect(previous_ss, subsystems[index])
        channel.split_net(
            previous_ss.wire(f"w{index}", previous_port),
            subsystems[index].wire(f"w{index}", comp.port("in")))
        if not last:
            previous_port = comp.port("out")
        previous_ss = subsystems[index]
    return cosim


# ----------------------------------------------------------------------
# The compute star: a GIL-escape workload (WubbleU word-level nodes).
#
# A hub fans a round index out to W workers; each worker grinds a
# pure-Python word-level checksum over its payload (the kind of
# instruction-set-level loop the paper's WubbleU processor model runs)
# and sends the digest back.  Virtual time and message structure depend
# only on (workers, rounds, period) — never on wall-clock — so every
# deployment mode must produce bit-identical virtual times and event
# counts, while wall-clock scales with how many checksum loops truly run
# in parallel.  Threads cannot parallelise the loops (one GIL);
# processes can.
#
# The factories take ``name`` first and are importable by dotted path,
# which is exactly the shape `MultiprocessCoSimulation` subsystem specs
# need to bootstrap a spawned worker process.
# ----------------------------------------------------------------------

def word_checksum(seed: int, words: int) -> int:
    """A deterministic 16-bit rolling checksum over ``words`` words —
    pure Python on purpose: it holds the GIL for its whole duration."""
    acc = seed & 0xFFFF
    for index in range(words):
        acc = (acc * 31 + (index & 0xFF) + 1) & 0xFFFF
    return acc


def make_compute_hub(name: str, *, workers: int, rounds: int,
                     period: float = 1.0) -> Subsystem:
    """The star's centre: fan out a round index, gather the digests."""

    def behave(comp):
        comp.totals = []
        for round_index in range(rounds):
            yield Advance(period)
            for k in range(workers):
                yield Send(f"go{k}", round_index)
            total = 0
            for k in range(workers):
                __, digest = yield Receive(f"done{k}")
                total = (total + digest) & 0xFFFFFFFF
            comp.totals.append(total)

    ports = {}
    for k in range(workers):
        ports[f"go{k}"] = "out"
        ports[f"done{k}"] = "in"
    hub = FunctionComponent("hub", behave, ports=ports)
    subsystem = Subsystem(name)
    subsystem.add(hub)
    for k in range(workers):
        subsystem.wire(f"go{k}", hub.port(f"go{k}"))
        subsystem.wire(f"done{k}", hub.port(f"done{k}"))
    return subsystem


def make_compute_worker(name: str, *, index: int, rounds: int, words: int,
                        period: float = 1.0) -> Subsystem:
    """One spoke: receive a round index, checksum ``words`` words, reply.

    Net names carry the spoke ``index`` so they pair with the hub's
    ``go{index}``/``done{index}`` halves.
    """

    def behave(comp):
        for __ in range(rounds):
            __, value = yield Receive("go")
            yield Send("done", word_checksum(value * 7919 + index, words))

    worker = FunctionComponent("worker", behave,
                               ports={"go": "in", "done": "out"})
    subsystem = Subsystem(name)
    subsystem.add(worker)
    subsystem.wire(f"go{index}", worker.port("go"))
    subsystem.wire(f"done{index}", worker.port("done"))
    return subsystem


def compute_star(worker_count: int, rounds: int, *, words: int = 4000,
                 period: float = 1.0, executor: str = "cosim",
                 batching: bool = True, **kwargs):
    """The star wired for a single-process executor: ``executor`` picks
    ``"cosim"`` (cooperative) or ``"threaded"``; extra ``kwargs`` (e.g.
    ``fault_plan``) pass through to the executor constructor."""
    try:
        executor_class = {"cosim": CoSimulation,
                          "threaded": ThreadedCoSimulation}[executor]
    except KeyError:
        raise ValueError(f"unknown executor {executor!r}: "
                         "use 'cosim' or 'threaded'") from None
    cosim = executor_class(batching=batching, **kwargs)
    hub = cosim.add_subsystem(
        cosim.add_node("n-hub"),
        make_compute_hub("hub", workers=worker_count, rounds=rounds,
                         period=period))
    for k in range(worker_count):
        spoke = cosim.add_subsystem(
            cosim.add_node(f"n-w{k}"),
            make_compute_worker(f"w{k}", index=k, rounds=rounds,
                                words=words, period=period))
        channel = cosim.connect(hub, spoke, delay=period / 4)
        channel.split_net(hub.nets[f"go{k}"], spoke.nets[f"go{k}"])
        channel.split_net(hub.nets[f"done{k}"], spoke.nets[f"done{k}"])
    return cosim


def compute_star_multiprocess(worker_count: int, rounds: int, *,
                              words: int = 4000, period: float = 1.0,
                              **kwargs) -> MultiprocessCoSimulation:
    """The same star as :func:`compute_star`, declared as picklable specs
    for the process-per-node deployment (extra ``kwargs`` pass through to
    :class:`MultiprocessCoSimulation`)."""
    cosim = MultiprocessCoSimulation(**kwargs)
    cosim.add_node("n-hub")
    cosim.add_subsystem("n-hub", "hub",
                        "repro.bench.workloads:make_compute_hub",
                        workers=worker_count, rounds=rounds, period=period)
    for k in range(worker_count):
        cosim.add_node(f"n-w{k}")
        cosim.add_subsystem(f"n-w{k}", f"w{k}",
                            "repro.bench.workloads:make_compute_worker",
                            index=k, rounds=rounds, words=words,
                            period=period)
        cosim.connect("hub", f"w{k}", delay=period / 4,
                      nets=(f"go{k}", f"done{k}"))
    return cosim
