"""The ledger's end-to-end workloads.

Each workload is a closed-loop batch job: one ``run()`` of a freshly
built co-simulation to global quiescence.  A :class:`Workload` knows how
to generate its inputs from a seed, build an instance from them, and
check what the instance produced — with no pinned constants, so every
seed works.  The program under test sees only the generated inputs.

Sizes: ``full`` is what the benchmark measures; ``check`` is the tiny
variant behind ``run.py --check`` and the untimed warm-up rep.  The
``full`` sizes of the four workloads ``BENCHMARK.json`` names keep one
rep near 50 ms: on a shared host only a short rep has a chance of
running undisturbed, and the benchmark reports the fastest of many
(README.md, "Sizes").  The other three are measured by ``run.py`` all
the same, but the driver sets no fence on them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.wubbleu import WubbleUConfig, build_local, build_split
from repro.bench.workloads import compute_star, compute_star_multiprocess
from repro.core.component import FunctionComponent
from repro.core.process import Advance, Receive, Send
from repro.distributed.executor import CoSimulation
from repro.transport.latency import INTERNET

#: Counts that must repeat exactly between reps.  The cooperative
#: executor is deterministic down to the byte; under threads and
#: processes the number of synchronous safe-time requests (and with it
#: frames and bytes) depends on arrival order, the simulated behaviour
#: does not.
EXACT_COOPERATIVE = ("events", "messages", "frames", "bytes", "requests",
                     "virtual_end")
EXACT_CONCURRENT = ("events", "data_messages", "virtual_end")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str
    why: str
    #: Executor under test: ``coop`` | ``threaded`` | ``mp``.
    executor: str
    #: What carries inter-node frames: ``none`` | ``inmemory`` | ``tcp`` |
    #: ``shm`` — selects the carrier micro-probe of the traced run.
    carrier: str
    sizes: Dict[str, Dict[str, Any]]
    #: ``(seed, size) -> inputs``: the generated inputs (cheap).
    prepare: Callable[[int, Dict[str, Any]], Dict[str, Any]]
    #: ``(inputs, pool) -> instance``: a fresh, un-run co-simulation.
    build: Callable[[Dict[str, Any], Any], Any]
    #: ``inputs -> expected``: reference outputs, computed in set-up.
    expect: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: ``(instance, facts, inputs, expected) -> problems``: every way the
    #: run's outputs (``facts`` is :func:`facts_of` its report) differ
    #: from what the inputs call for.
    verify: Callable[[Any, Dict[str, Any], Dict[str, Any], Dict[str, Any]],
                     List[str]]
    exact: Tuple[str, ...]
    #: ``inputs -> instance``: the same topology under the cooperative
    #: executor (concurrent workloads only), for overhead/speedup ratios.
    coop_twin: Optional[Callable[[Dict[str, Any]], Any]] = None
    #: Passed to ``run(timeout=...)`` of the threaded and multiprocess
    #: executors; a hang becomes a failed rep, never a hung benchmark.
    timeout: float = 60.0

    def run(self, instance) -> None:
        if self.executor == "coop":
            instance.run()
        else:
            instance.run(timeout=self.timeout)


def facts_of(report) -> Dict[str, Any]:
    """The simulated statistics of a finished run, from its RunReport."""
    totals = report.link_totals()
    # Endpoint counts, not the telemetry counter: the counter may lose
    # ticks under thread contention, the endpoint field cannot.
    requests = sum(row["safe_time_requests"] for row in report.subsystems)
    return {
        "events": sum(row["dispatched"] for row in report.subsystems),
        "messages": totals["messages"],
        "frames": totals["frames"],
        "bytes": totals["bytes"],
        "requests": requests,
        # A synchronous request is two messages (call + reply); what is
        # left is signal traffic, identical across deployments.
        "data_messages": totals["messages"] - 2 * requests,
        "net_delay_s": totals["delay"],
        "virtual_end": max((row["time"] for row in report.subsystems),
                           default=0.0),
        "rows": [[row["name"], row["time"], row["dispatched"]]
                 for row in report.subsystems],
        "piggybacked": report.counter("safetime.piggybacked"),
        "pushed": report.counter("safetime.pushed"),
        "trace_records": sum(report.trace_counts.values()),
    }


# ----------------------------------------------------------------------
# WubbleU (Table 1)
# ----------------------------------------------------------------------
def _sizes_and_seed(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    """Inputs that are the sizes plus the seed.  WubbleU derives its page
    from the seed at build time; the star's inputs are its sizes and the
    seed has nothing to vary."""
    return dict(size, seed=seed)


def _wubbleu_config(inputs: Dict[str, Any]) -> WubbleUConfig:
    return WubbleUConfig(level="word", seed=inputs["seed"],
                         page_loads=inputs["page_loads"],
                         total_bytes=inputs["total_bytes"],
                         image_count=inputs["image_count"],
                         image_size=inputs["image_size"])


def _build_local_word(inputs, pool):
    return build_local(_wubbleu_config(inputs))[0]


def _build_remote_word(inputs, pool):
    return build_split(_wubbleu_config(inputs), network=INTERNET,
                       batching=True)[0]


def _page_load_problems(cosim, inputs) -> List[str]:
    problems = []
    if cosim.component("UI").page_loaded_at is None:
        problems.append("the page never finished loading")
    # build_page pads the page to exactly total_bytes.
    wanted = inputs["total_bytes"] * inputs["page_loads"]
    loaded = cosim.component("Browser").bytes_received
    if loaded != wanted:
        problems.append(f"bytes_loaded {loaded} != page size {wanted}")
    return problems


def _verify_local_word(cosim, facts, inputs, expected) -> List[str]:
    return _page_load_problems(cosim, inputs)


def _expect_remote_word(inputs) -> Dict[str, Any]:
    """The paper's contract: distribution must not move the virtual
    completion time — so run the same page locally first."""
    local = _build_local_word(inputs, None)
    local.run()
    return {"page_loaded_at": local.component("UI").page_loaded_at}


def _verify_remote_word(cosim, facts, inputs, expected) -> List[str]:
    problems = _page_load_problems(cosim, inputs)
    landed = cosim.component("UI").page_loaded_at
    if landed != expected["page_loaded_at"]:
        problems.append(f"remote word landed at {landed!r}, local word at "
                        f"{expected['page_loaded_at']!r}")
    return problems


# ----------------------------------------------------------------------
# the seeded stream pair
# ----------------------------------------------------------------------
def stream_payloads(seed: int, count: int) -> List[Any]:
    """70% ints, 20% ``bytes`` of 64-1024 B, 10% small lists — the lists
    are mutable, so the transport's copy path is exercised too."""
    rng = random.Random(seed)
    payloads: List[Any] = []
    for __ in range(count):
        roll = rng.random()
        if roll < 0.7:
            payloads.append(rng.randrange(1 << 30))
        elif roll < 0.9:
            payloads.append(rng.randbytes(rng.randint(64, 1024)))
        else:
            payloads.append([rng.randrange(256)
                             for __ in range(rng.randint(1, 8))])
    return payloads


def stream_digest(sequence) -> str:
    """sha256 over a ``(time, value)`` sequence."""
    digest = hashlib.sha256()
    for time, value in sequence:
        digest.update(repr((time, value)).encode())
    return digest.hexdigest()


def _stream_prepare(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    return dict(size, seed=seed,
                payloads=stream_payloads(seed, size["messages"]))


def _build_stream_pair(inputs, pool) -> CoSimulation:
    """Producer -> consumer across two nodes, cooperative executor,
    in-memory transport, every default as ``CoSimulation()`` ships it —
    the shape of ``repro.bench.workloads.streaming_pair`` with the
    seeded payload mix in place of the message index."""
    payloads = inputs["payloads"]
    period = inputs["period"]
    cosim = CoSimulation()
    ss_cons = cosim.add_subsystem(cosim.add_node("n-cons"), "a-consumer")
    ss_prod = cosim.add_subsystem(cosim.add_node("n-prod"), "z-producer")

    def produce(comp):
        for payload in payloads:
            yield Advance(period)
            yield Send("out", payload)

    def consume(comp):
        comp.received = []
        for __ in range(len(payloads)):
            comp.received.append((yield Receive("in")))

    producer = FunctionComponent("producer", produce, ports={"out": "out"})
    consumer = FunctionComponent("consumer", consume, ports={"in": "in"})
    ss_prod.add(producer)
    ss_cons.add(consumer)
    channel = cosim.connect(ss_prod, ss_cons)
    channel.split_net(ss_prod.wire("stream", producer.port("out")),
                      ss_cons.wire("stream", consumer.port("in")))
    return cosim


def _expect_stream(inputs) -> Dict[str, Any]:
    period = inputs["period"]
    return {"digest": stream_digest(
        ((index + 1) * period, payload)
        for index, payload in enumerate(inputs["payloads"]))}


def received_digest(cosim) -> str:
    return stream_digest(cosim.component("consumer").received)


def _verify_stream(cosim, facts, inputs, expected) -> List[str]:
    got = received_digest(cosim)
    if got != expected["digest"]:
        return [f"consumer digest {got[:12]} != generator digest "
                f"{expected['digest'][:12]}"]
    return []


# ----------------------------------------------------------------------
# the compute star (ping-pong is the one-worker, no-compute star)
# ----------------------------------------------------------------------
def _star_args(inputs) -> Tuple[int, int]:
    return inputs["workers"], inputs["rounds"]


def _build_star_coop(inputs, pool=None):
    return compute_star(*_star_args(inputs), words=inputs["words"])


def _build_star_threaded(inputs, pool):
    return compute_star(*_star_args(inputs), words=inputs["words"],
                        executor="threaded")


def _build_star_mp(transport: str):
    def build(inputs, pool):
        return compute_star_multiprocess(
            *_star_args(inputs), words=inputs["words"],
            transport=transport, pool=pool)
    return build


def _expect_star(inputs) -> Dict[str, Any]:
    """Cooperative reference of the same topology.  Virtual times and
    message structure depend only on (workers, rounds), never on the
    checksum length, so the reference runs with next to no compute."""
    reference = compute_star(*_star_args(inputs), words=10)
    reference.run()
    facts = facts_of(reference.report())
    return {"rows": facts["rows"], "data_messages": facts["data_messages"]}


def _verify_star(instance, facts, inputs, expected) -> List[str]:
    problems = []
    if facts["rows"] != expected["rows"]:
        problems.append(f"subsystem rows {facts['rows']} != cooperative "
                        f"reference {expected['rows']}")
    if facts["data_messages"] != expected["data_messages"]:
        problems.append(
            f"{facts['data_messages']} inter-node data messages != "
            f"cooperative reference {expected['data_messages']}")
    return problems


# ----------------------------------------------------------------------
# Table 1's page is 66 KB with four images; remote word passage makes
# every 4-byte bus word an inter-node message, so its page is smaller
# still.
_QUARTER_PAGE = {"total_bytes": 16_500, "image_count": 4, "image_size": 40}
_FORTIETH_PAGE = {"total_bytes": 1_650, "image_count": 1, "image_size": 16}
_SMALL_PAGE = {"total_bytes": 800, "image_count": 1, "image_size": 8}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="wubbleu_local_word",
        why="Table 1 local word passage: one subsystem, no channel, so "
            "all time is core dispatch plus model code and every "
            "distribution layer must read 'no change'.",
        executor="coop", carrier="none",
        sizes={"full": dict(_QUARTER_PAGE, page_loads=1),
               "check": dict(_SMALL_PAGE, page_loads=1)},
        prepare=_sizes_and_seed, build=_build_local_word,
        expect=lambda inputs: {}, verify=_verify_local_word,
        exact=EXACT_COOPERATIVE),
    Workload(
        name="stream_pair_coop",
        why="Producer to consumer across two nodes with defaults: the "
            "synchronous safe-time call and per-message encode/decode "
            "dominate; where 10k to 100k ev/s must show.",
        executor="coop", carrier="inmemory",
        sizes={"full": {"messages": 250, "period": 1.0},
               "check": {"messages": 50, "period": 1.0}},
        prepare=_stream_prepare, build=_build_stream_pair,
        expect=_expect_stream, verify=_verify_stream,
        exact=EXACT_COOPERATIVE),
    Workload(
        name="wubbleu_remote_word",
        why="Table 1 remote word passage over the INTERNET model, "
            "batched: the paper's headline row; grants piggybacked and "
            "pushed instead of synchronous calls.",
        executor="coop", carrier="inmemory",
        sizes={"full": dict(_FORTIETH_PAGE, page_loads=1),
               "check": dict(_SMALL_PAGE, page_loads=1)},
        prepare=_sizes_and_seed, build=_build_remote_word,
        expect=_expect_remote_word, verify=_verify_remote_word,
        exact=EXACT_COOPERATIVE),
    Workload(
        name="pingpong_threaded",
        why="Request/reply latency through the thread-per-node executor: "
            "the only workload that runs distributed.threaded.",
        executor="threaded", carrier="inmemory",
        sizes={"full": {"workers": 1, "rounds": 50, "words": 10},
               "check": {"workers": 1, "rounds": 10, "words": 10}},
        prepare=_sizes_and_seed, build=_build_star_threaded,
        expect=_expect_star, verify=_verify_star,
        exact=EXACT_CONCURRENT, coop_twin=_build_star_coop),
    Workload(
        name="pingpong_mp_shm",
        why="Every hop crosses codec, SPSC ring and a worker round with "
            "no compute: wall-clock is pure backplane latency.",
        executor="mp", carrier="shm",
        sizes={"full": {"workers": 1, "rounds": 50, "words": 10},
               "check": {"workers": 1, "rounds": 10, "words": 10}},
        prepare=_sizes_and_seed, build=_build_star_mp("shm"),
        expect=_expect_star, verify=_verify_star,
        exact=EXACT_CONCURRENT, coop_twin=_build_star_coop),
    Workload(
        name="pingpong_mp_tcp",
        why="The same ping-pong over loopback TCP, the carrier a "
            "geographic deployment needs; paired with shm it isolates "
            "ring versus socket.",
        executor="mp", carrier="tcp",
        sizes={"full": {"workers": 1, "rounds": 50, "words": 10},
               "check": {"workers": 1, "rounds": 10, "words": 10}},
        prepare=_sizes_and_seed, build=_build_star_mp("tcp"),
        expect=_expect_star, verify=_verify_star,
        exact=EXACT_CONCURRENT, coop_twin=_build_star_coop),
    Workload(
        name="star_compute_mp_shm",
        why="Compute-bound two-worker star with 48 messages in total: "
            "protocol, codec and carrier changes must read 'no change'; "
            "anything that serialises workers shows at once.",
        executor="mp", carrier="shm",
        sizes={"full": {"workers": 2, "rounds": 12, "words": 1_500_000},
               "check": {"workers": 2, "rounds": 3, "words": 1_000}},
        prepare=_sizes_and_seed, build=_build_star_mp("shm"),
        expect=_expect_star, verify=_verify_star,
        exact=EXACT_CONCURRENT, coop_twin=_build_star_coop),
)}
