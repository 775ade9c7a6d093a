"""The node owns its round and its grant ledger; executors only decide who
steps and when to stop.  These tests drive ``PiaNode.step`` /
``grants_for`` / ``stalled_grants`` directly, without any executor loop."""

import sys
import threading

import pytest

from repro.apps.wubbleu import WubbleUConfig, build_split
from repro.bench.workloads import (
    compute_star,
    compute_star_multiprocess,
    ring_of_pairs,
    streaming_pair,
    streaming_pair_spec,
)
from repro.distributed import build
from repro.distributed.node import PiaNode
from repro.transport.latency import INTERNET
from repro.transport.message import MessageKind


def rows(cosim):
    return [(name, ss.now, ss.scheduler.dispatched)
            for name, ss in sorted(cosim.subsystems.items())]


def round_robin(cosim, until=float("inf")):
    """The whole 'executor': step every node until nothing moves."""
    nodes = [cosim.nodes[name] for name in sorted(cosim.nodes)]
    for node in nodes:
        node.start()
    total = 0
    moved = True
    while moved:
        moved = False
        for node in nodes:
            progress, dispatched = node.step(until)
            moved = moved or progress
            total += dispatched
    return total


class TestExecutorIndependence:
    def test_streaming_pair_matches_cooperative_run(self):
        reference = streaming_pair(40, 1.0, channel_delay=0.25)
        events = reference.run()
        stepped = streaming_pair(40, 1.0, channel_delay=0.25)
        assert round_robin(stepped) == events
        assert rows(stepped) == rows(reference)
        assert stepped.component("consumer").received \
            == reference.component("consumer").received

    def test_ring_of_pairs_matches_cooperative_run(self):
        reference = ring_of_pairs(4, 12)
        events = reference.run()
        stepped = ring_of_pairs(4, 12)
        assert round_robin(stepped) == events
        assert rows(stepped) == rows(reference)
        assert [stepped.component(f"c{k}").seen for k in (1, 2, 3)] \
            == [reference.component(f"c{k}").seen for k in (1, 2, 3)]

    def test_until_bounds_a_step(self):
        stepped = streaming_pair(10, 1.0)
        round_robin(stepped, until=3.0)
        assert [v for __, v in stepped.component("consumer").received] \
            == [0, 1, 2]


def batched_split_wubbleu():
    """The split WubbleU page at word level, batched, on a small page:
    two nodes, a two-way link, grants piggybacked and pushed."""
    return build_split(WubbleUConfig(
        level="word", page_loads=1, total_bytes=800, image_count=1,
        image_size=8), network=INTERNET, batching=True)[0]


class TestCooperativeRoundIsNodeSteps:
    """``CoSimulation.run`` is a loop over ``PiaNode.step``: every round
    steps every node once, and ``advance`` has no caller but ``step``."""

    @pytest.mark.parametrize("model", [
        lambda: streaming_pair(40, 1.0, channel_delay=0.25),
        batched_split_wubbleu,
    ], ids=["stream_pair", "batched_split_wubbleu"])
    def test_one_step_per_node_per_round(self, model, monkeypatch):
        cosim = model()
        steps, callers = [], set()
        step, advance = PiaNode.step, PiaNode.advance

        def counted_step(node, *args, **kwargs):
            steps.append(node.name)
            return step(node, *args, **kwargs)

        def counted_advance(node, *args, **kwargs):
            callers.add(sys._getframe(1).f_code)
            return advance(node, *args, **kwargs)

        monkeypatch.setattr(PiaNode, "step", counted_step)
        monkeypatch.setattr(PiaNode, "advance", counted_advance)
        assert cosim.run() > 0
        assert len(steps) == cosim.rounds * len(cosim.nodes)
        assert steps[:len(cosim.nodes)] * cosim.rounds == steps
        assert callers == {step.__code__}


def stalled_pair():
    """Producer/consumer pair, started but not run: the producer's next
    event is at t=1, the consumer is idle (floor = inf)."""
    cosim = streaming_pair(5, 1.0)
    for node in cosim.nodes.values():
        node.start()
    producer = cosim.nodes["n-prod"]
    endpoint = next(iter(cosim.subsystem("z-producer").channels.values()))
    return cosim, producer, endpoint


class TestGrantLedger:
    def test_grants_for_reports_floor_and_counts(self):
        __, producer, endpoint = stalled_pair()
        endpoint.injected = 3
        (grant,) = producer.grants_for("n-cons")
        assert grant.kind is MessageKind.SAFE_TIME_GRANT
        assert (grant.src, grant.dst) == ("n-prod", "n-cons")
        assert grant.time == 1.0
        assert grant.payload == (3, 0)
        assert endpoint.injected_reported == 3
        assert endpoint.granted_reported == 1.0
        assert producer.grants_for("n-elsewhere") == []

    def test_want_cleared_only_once_the_floor_passes_it(self):
        __, producer, endpoint = stalled_pair()
        endpoint.peer_want = 2.0
        producer.grants_for("n-cons")          # floor 1.0 < want
        assert endpoint.peer_want == 2.0
        endpoint.peer_want = 0.5
        producer.grants_for("n-cons")          # floor 1.0 >= want
        assert endpoint.peer_want == 0.0

    def test_grants_for_is_empty_while_the_lock_is_held_elsewhere(self):
        __, producer, endpoint = stalled_pair()
        holding, release = threading.Event(), threading.Event()

        def hold():
            with producer.lock:
                holding.set()
                release.wait(5.0)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert holding.wait(5.0)
            assert producer.grants_for("n-cons") == []
            assert endpoint.granted_reported == 0.0     # ledger untouched
        finally:
            release.set()
            thread.join(5.0)
        assert not thread.is_alive()
        assert len(producer.grants_for("n-cons")) == 1

    def test_stalled_grants_push_satisfied_wants_and_stale_counts(self):
        cosim, producer, endpoint = stalled_pair()
        consumer = cosim.nodes["n-cons"]
        back = next(iter(cosim.subsystem("a-consumer").channels.values()))
        # A stalled (or idle) subsystem's floor is news exactly once.
        (grant,) = producer.stalled_grants()["n-cons"]
        assert grant.time == 1.0 == endpoint.granted_reported
        assert producer.stalled_grants() == {}
        (grant,) = consumer.stalled_grants()["n-prod"]
        assert grant.time == float("inf")
        assert consumer.stalled_grants() == {}
        # Unreported consumption is pushed, and the watermark advances.
        # (The consumer's end cannot send: its grants say so in a third
        # payload element until a served reply has delivered the news.)
        back.injected = 2
        (grant,) = consumer.stalled_grants()["n-prod"]
        assert grant.payload == (2, 0, True)
        assert back.injected_reported == 2
        assert consumer.stalled_grants() == {}
        # A runnable subsystem stays quiet (its data frames carry the
        # grants) unless a peer recorded a want the floor has now passed.
        assert endpoint.accept_grant(float("inf"), (0, 0))
        endpoint.granted_reported = 0.0
        assert producer.stalled_grants() == {}
        endpoint.peer_want = 2.0                        # floor 1.0 below it
        assert producer.stalled_grants() == {}
        assert endpoint.peer_want == 2.0
        endpoint.peer_want = 0.5
        (grant,) = producer.stalled_grants()["n-cons"]
        assert grant.time == 1.0
        assert endpoint.peer_want == 0.0


class TestBatchedRefresh:
    @pytest.mark.parametrize("batching", [True, False])
    def test_asks_when_only_its_echo_ledger_restricts(self, batching):
        """A peer grant covering ``desired`` does not excuse an echo the
        peer has not confirmed consuming: the first refresh asks, under
        batching as without it (the executor alone throttles requests)."""
        cosim = build(streaming_pair_spec(5, 1.0), batching=batching)
        for node in cosim.nodes.values():
            node.start()
        producer = cosim.subsystem("z-producer")
        endpoint = next(iter(producer.channels.values()))
        assert endpoint.accept_grant(10.0, (0, 0))
        endpoint.forward("stream", 2.0, 0)      # its echo could be back at 2
        assert endpoint.pending_echoes[0] == (1, 2.0)
        client = producer.node.clients["z-producer"]
        client.refresh(5.0)
        assert client.requests_sent == 1 == endpoint.safe_time_requests


class TestServedCounter:
    """Every safe-time request a fault-free run sends is served, and every
    executor's report says so (the locked server used to count nothing)."""

    def test_cooperative(self):
        cosim = compute_star(2, 3, words=50, batching=False)
        cosim.run()
        self.check(cosim.report())

    def test_threaded(self):
        cosim = compute_star(2, 3, words=50, executor="threaded",
                             batching=False)
        cosim.run(timeout=30.0)
        self.check(cosim.report())

    def test_multiprocess(self):
        with compute_star_multiprocess(2, 3, words=50,
                                       batching=False) as cosim:
            cosim.run(timeout=60.0)
            self.check(cosim.report())

    @staticmethod
    def check(report):
        assert report.counter("safetime.requests") > 0
        assert report.counter("safetime.served") \
            == report.counter("safetime.requests")
