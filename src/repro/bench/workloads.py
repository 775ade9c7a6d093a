"""Reusable synthetic workloads for the ablation benchmarks.

Each topology is written once, as a ``*_spec`` over name-first subsystem
factories importable by dotted path (the shape that can bootstrap a
spawned worker), so ``build(spec, executor)`` runs it under any executor;
``streaming_pair``, ``ring_of_pairs`` and ``compute_star`` are that call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.component import FunctionComponent
from ..core.process import Advance, Receive, Send, WaitUntil
from ..core.subsystem import Subsystem
from ..distributed import SystemSpec, build
from ..distributed.channel import ChannelMode
from ..distributed.executor import CoSimulation
from ..transport.latency import SAME_HOST, LatencyModel

if TYPE_CHECKING:  # pragma: no cover
    from ..distributed.multiprocess import MultiprocessCoSimulation

_HERE = "repro.bench.workloads:"


def make_stream_producer(name: str, *, message_count: int,
                         period: float) -> Subsystem:
    """Send ``message_count`` indices, one per ``period``, on ``stream``."""

    def produce(comp):
        for index in range(message_count):
            yield Advance(period)
            yield Send("out", index)

    producer = FunctionComponent("producer", produce, ports={"out": "out"})
    subsystem = Subsystem(name)
    subsystem.add(producer)
    subsystem.wire("stream", producer.port("out"))
    return subsystem


def make_stream_consumer(name: str, *, message_count: int, period: float,
                         consumer_work: float = 0.0) -> Subsystem:
    """Collect ``message_count`` values from ``stream`` (as
    ``consumer.received``), next to ``consumer_work`` virtual seconds of
    private busy-work ticking every ``period``."""

    def consume(comp):
        comp.received = []
        for __ in range(message_count):
            t, value = yield Receive("in")
            comp.received.append((t, value))

    consumer = FunctionComponent("consumer", consume, ports={"in": "in"})
    subsystem = Subsystem(name)
    subsystem.add(consumer)

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
        subsystem.add(ticker)
        subsystem.add(sink)
        subsystem.wire("busyline", ticker.port("tick"), sink.port("in"))

    subsystem.wire("stream", consumer.port("in"))
    return subsystem


def streaming_pair_spec(message_count: int, period: float, *,
                        mode: ChannelMode = ChannelMode.CONSERVATIVE,
                        consumer_work: float = 0.0,
                        network: LatencyModel = SAME_HOST,
                        channel_delay: float = 0.0) -> SystemSpec:
    """A producer streaming to a consumer across two nodes.

    ``consumer_work`` gives the consumer's subsystem private busy-work so
    that, under optimism, it runs ahead and stragglers occur (the consumer
    subsystem is named to be scheduled first).
    """
    spec = SystemSpec()
    spec.add_subsystem(spec.add_node("n-cons"), "a-consumer",
                       _HERE + "make_stream_consumer",
                       message_count=message_count, period=period,
                       consumer_work=consumer_work)
    spec.add_subsystem(spec.add_node("n-prod"), "z-producer",
                       _HERE + "make_stream_producer",
                       message_count=message_count, period=period)
    spec.set_link_model("n-cons", "n-prod", network)
    spec.connect("z-producer", "a-consumer", mode=mode, delay=channel_delay,
                 nets=("stream",))
    return spec


def streaming_pair(message_count: int, period: float, *,
                   mode: ChannelMode = ChannelMode.CONSERVATIVE,
                   consumer_work: float = 0.0,
                   snapshot_interval: Optional[float] = None,
                   network: LatencyModel = SAME_HOST,
                   channel_delay: float = 0.0) -> CoSimulation:
    """:func:`streaming_pair_spec` under the cooperative executor."""
    return build(streaming_pair_spec(
        message_count, period, mode=mode, consumer_work=consumer_work,
        network=network, channel_delay=channel_delay),
        snapshot_interval=snapshot_interval)


def make_ring_stage(name: str, *, index: int, count: int,
                    messages_each: int, period: float) -> Subsystem:
    """Stage ``index`` of ``count``: stage 0 sources ``messages_each``
    values on ``w1``; every later stage counts what arrives on
    ``w{index}`` (``seen``) and, unless last, relays it on
    ``w{index + 1}`` a tenth of a period later."""
    last = index == count - 1

    def source(comp):
        for value in range(messages_each):
            yield Advance(period)
            yield Send("out", value)

    def relay(comp):
        comp.seen = 0
        while True:
            t, value = yield Receive("in")
            comp.seen += 1
            if not last:
                yield Advance(period / 10)
                yield Send("out", value)

    ports = {} if index == 0 else {"in": "in"}
    if not last:
        ports["out"] = "out"
    comp = FunctionComponent(f"c{index}", relay if index else source,
                             ports=ports)
    subsystem = Subsystem(name)
    subsystem.add(comp)
    if index:
        subsystem.wire(f"w{index}", comp.port("in"))
    if not last:
        subsystem.wire(f"w{index + 1}", comp.port("out"))
    return subsystem


def ring_of_pairs_spec(subsystem_count: int, messages_each: int,
                       *, period: float = 1.0) -> SystemSpec:
    """A chain of subsystems, each streaming to the next (no long cycles,
    honouring the simple-cycle topology rule)."""
    spec = SystemSpec()
    for index in range(subsystem_count):
        spec.add_subsystem(spec.add_node(f"n{index}"), f"ss{index:02d}",
                           _HERE + "make_ring_stage", index=index,
                           count=subsystem_count,
                           messages_each=messages_each, period=period)
        if index:
            spec.connect(f"ss{index - 1:02d}", f"ss{index:02d}",
                         nets=(f"w{index}",))
    return spec


def ring_of_pairs(subsystem_count: int, messages_each: int,
                  *, period: float = 1.0) -> CoSimulation:
    """:func:`ring_of_pairs_spec` under the cooperative executor."""
    return build(ring_of_pairs_spec(subsystem_count, messages_each,
                                    period=period))


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


def compute_star_spec(worker_count: int, rounds: int, *, words: int = 4000,
                      period: float = 1.0) -> SystemSpec:
    """A hub on ``n-hub`` and one spoke per worker on ``n-w{k}``, each
    joined to the hub by a channel carrying ``go{k}``/``done{k}``."""
    spec = SystemSpec()
    spec.add_subsystem(spec.add_node("n-hub"), "hub",
                       _HERE + "make_compute_hub",
                       workers=worker_count, rounds=rounds, period=period)
    for k in range(worker_count):
        spec.add_subsystem(spec.add_node(f"n-w{k}"), f"w{k}",
                           _HERE + "make_compute_worker",
                           index=k, rounds=rounds, words=words,
                           period=period)
        spec.connect("hub", f"w{k}", delay=period / 4,
                     nets=(f"go{k}", f"done{k}"))
    return spec


def compute_star(worker_count: int, rounds: int, *, words: int = 4000,
                 period: float = 1.0, executor: str = "cosim",
                 batching: bool = True, **kwargs):
    """:func:`compute_star_spec` under ``executor`` (``"cosim"``,
    ``"threaded"`` or ``"multiprocess"``); extra ``kwargs`` (e.g.
    ``fault_plan``) pass through to the executor constructor."""
    return build(compute_star_spec(worker_count, rounds, words=words,
                                   period=period),
                 executor, batching=batching, **kwargs)


def compute_star_multiprocess(worker_count: int, rounds: int, *,
                              words: int = 4000, period: float = 1.0,
                              **kwargs) -> MultiprocessCoSimulation:
    """:func:`compute_star` with ``executor="multiprocess"``."""
    return compute_star(worker_count, rounds, words=words, period=period,
                        executor="multiprocess", **kwargs)
