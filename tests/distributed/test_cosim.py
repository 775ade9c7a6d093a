"""Distributed co-simulation: conservative discipline, parity with the
single-host simulator, stalls, safe-time traffic."""

import json

import pytest

from repro.core import (
    Advance,
    DeadlockError,
    FunctionComponent,
    Receive,
    Send,
    Simulator,
    WaitUntil,
)
from repro.distributed import ChannelMode, CoSimulation
from repro.observability import (
    TraceKind,
    chrome_trace,
    validate_chrome_trace,
)
from repro.observability.export import trace_records
from repro.observability.flight import ENV_DIR
from repro.transport import LAN


def producer_behaviour(values, period=1.0):
    def produce(comp):
        for value in values:
            yield Advance(period)
            yield Send("out", value)
    return produce


def collector_behaviour(sink, count):
    def consume(comp):
        for __ in range(count):
            t, v = yield Receive("in")
            sink.append((t, v))
    return consume


def build_two_subsystems(values, sink, *, mode=ChannelMode.CONSERVATIVE,
                         delay=0.0, model=None, consumer_port="in"):
    """``consumer_port="inout"`` (never driven) makes the consumer's end
    one that could send, so the pair runs the per-message safe-time
    protocol instead of one-way windows."""
    cosim = CoSimulation()
    node_a = cosim.add_node("alpha")
    node_b = cosim.add_node("beta")
    ss_a = cosim.add_subsystem(node_a, "ss-a")
    ss_b = cosim.add_subsystem(node_b, "ss-b")
    if model is not None:
        cosim.set_link_model("alpha", "beta", model)
    producer = FunctionComponent("producer", producer_behaviour(values),
                                 ports={"out": "out"})
    consumer = FunctionComponent("consumer",
                                 collector_behaviour(sink, len(values)),
                                 ports={"in": consumer_port})
    ss_a.add(producer)
    ss_b.add(consumer)
    channel = cosim.connect(ss_a, ss_b, mode=mode, delay=delay)
    net_a = ss_a.wire("link", producer.port("out"))
    net_b = ss_b.wire("link", consumer.port("in"))
    channel.split_net(net_a, net_b)
    return cosim


def single_host_reference(values):
    sink = []
    sim = Simulator()
    producer = FunctionComponent("producer", producer_behaviour(values),
                                 ports={"out": "out"})
    consumer = FunctionComponent("consumer",
                                 collector_behaviour(sink, len(values)),
                                 ports={"in": "in"})
    sim.add(producer)
    sim.add(consumer)
    sim.wire("link", producer.port("out"), consumer.port("in"))
    sim.run()
    return sink


class TestConservativePipeline:
    def test_matches_single_host_reference(self):
        values = list(range(12))
        sink = []
        cosim = build_two_subsystems(values, sink)
        cosim.run()
        assert sink == single_host_reference(values)

    def test_channel_delay_shifts_arrivals(self):
        values = [7, 8]
        sink = []
        cosim = build_two_subsystems(values, sink, delay=0.5)
        cosim.run()
        assert sink == [(1.5, 7), (2.5, 8)]

    def test_finished_and_times(self):
        sink = []
        cosim = build_two_subsystems([1, 2, 3], sink)
        cosim.run()
        assert cosim._reached(float("inf"), finish=True)
        assert cosim.component("consumer").local_time == 3.0
        assert cosim.global_time() >= 3.0

    def test_deadlock_report_dumps_the_black_box(self, tmp_path,
                                                 monkeypatch):
        """The wrong run explains itself: the deadlock report leaves the
        flight ring on disk — the stalls that led up to it, then the
        abort — readable by the trace tooling."""
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        # A one-way pipeline runs in windows and never stalls; an end
        # that could send restores the stalls this report is about.
        cosim = build_two_subsystems(list(range(6)), [],
                                     consumer_port="inout")
        cosim.run(until=3.0)
        with pytest.raises(DeadlockError, match="no subsystem can advance"):
            cosim._report_deadlock(float("inf"))
        path, = tmp_path.glob("pia-flight-cosim-*.jsonl")
        header, *lines = [json.loads(line)
                          for line in path.read_text().splitlines()]
        assert header["reason"] == "deadlock"
        records = trace_records(lines)
        assert records[-1]["kind"] == TraceKind.ABORT
        assert records[-1]["time"] == cosim.global_time()
        assert TraceKind.STALL in {r["kind"] for r in records[:-1]}
        assert validate_chrome_trace(chrome_trace(records)) == []

    def test_safe_time_requests_happen(self):
        sink = []
        cosim = build_two_subsystems(list(range(5)), sink)
        cosim.run()
        assert cosim.safe_time_requests() > 0

    def test_deterministic_across_runs(self):
        def one_run():
            sink = []
            cosim = build_two_subsystems(list(range(20)), sink)
            cosim.run()
            return sink, cosim.safe_time_requests()

        assert one_run() == one_run()

    def test_accounting_sees_channel_traffic(self):
        sink = []
        cosim = build_two_subsystems([1, 2, 3], sink, model=LAN)
        cosim.run()
        stats = cosim.transport.accounting
        assert stats.total_messages > 0
        link = stats.links[("alpha", "beta")]
        assert link.model is LAN
        assert link.delay > 0

    def test_run_until_bound(self):
        values = list(range(10))
        sink = []
        cosim = build_two_subsystems(values, sink)
        cosim.run(until=4.0)
        assert [v for __, v in sink] == [0, 1, 2, 3]
        cosim.run()
        assert [v for __, v in sink] == values


class TestBidirectionalPingPong:
    """The self-restriction-removal / echo-bound machinery: two
    subsystems that strictly alternate must not deadlock and must
    interleave exactly as on one host."""

    @staticmethod
    def _ping(comp):
        for i in range(8):
            yield Advance(1.0)
            yield Send("tx", ("ping", i))
            t, v = yield Receive("rx")
            assert v == ("pong", i), v

    @staticmethod
    def _pong(comp):
        while True:
            t, (tag, i) = yield Receive("rx")
            yield Advance(0.25)
            yield Send("tx", ("pong", i))

    def _build_distributed(self, delay=0.0):
        cosim = CoSimulation()
        ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
        ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")
        ping = FunctionComponent("ping", self._ping,
                                 ports={"tx": "out", "rx": "in"})
        pong = FunctionComponent("pong", self._pong,
                                 ports={"tx": "out", "rx": "in"})
        ss_a.add(ping)
        ss_b.add(pong)
        channel = cosim.connect(ss_a, ss_b, delay=delay)
        fwd_a = ss_a.wire("fwd", ping.port("tx"))
        fwd_b = ss_b.wire("fwd", pong.port("rx"))
        bwd_a = ss_a.wire("bwd", ping.port("rx"))
        bwd_b = ss_b.wire("bwd", pong.port("tx"))
        channel.split_net(fwd_a, fwd_b)
        channel.split_net(bwd_b, bwd_a)
        return cosim, ping, pong

    def test_completes_without_deadlock(self):
        cosim, ping, pong = self._build_distributed()
        cosim.run()
        assert ping.finished
        assert ping.local_time == pytest.approx(8 * 1.25)

    def test_with_channel_delay(self):
        cosim, ping, pong = self._build_distributed(delay=0.1)
        cosim.run()
        assert ping.finished
        # each round: 1.0 compute + 0.1 out + 0.25 + 0.1 back
        assert ping.local_time == pytest.approx(8 * 1.45)

    def test_three_subsystem_chain(self):
        """A -> B -> C with replies B -> A: simple cycles only."""
        cosim = CoSimulation()
        ss = {name: cosim.add_subsystem(cosim.add_node(f"n-{name}"), name)
              for name in ("a", "b", "c")}
        results = []

        def head(comp):
            for i in range(5):
                yield Advance(1.0)
                yield Send("tx", i)
                t, v = yield Receive("rx")
                results.append((t, v))

        def middle(comp):
            while True:
                t, v = yield Receive("rx")
                yield Advance(0.1)
                yield Send("fwd", v * 10)
                yield Send("back", v)

        def tail(comp):
            total = 0
            while True:
                t, v = yield Receive("rx")
                total += v
                comp.total = total

        a = FunctionComponent("a", head, ports={"tx": "out", "rx": "in"})
        b = FunctionComponent("b", middle,
                              ports={"rx": "in", "fwd": "out", "back": "out"})
        c = FunctionComponent("c", tail, ports={"rx": "in"})
        ss["a"].add(a)
        ss["b"].add(b)
        ss["c"].add(c)
        ch_ab = cosim.connect(ss["a"], ss["b"])
        ch_bc = cosim.connect(ss["b"], ss["c"])
        ch_ab.split_net(ss["a"].wire("ab", a.port("tx")),
                        ss["b"].wire("ab", b.port("rx")))
        ch_ab.split_net(ss["b"].wire("ba", b.port("back")),
                        ss["a"].wire("ba", a.port("rx")))
        ch_bc.split_net(ss["b"].wire("bc", b.port("fwd")),
                        ss["c"].wire("bc", c.port("rx")))
        cosim.run()
        assert [v for __, v in results] == [0, 1, 2, 3, 4]
        assert c.total == 100   # (0+1+2+3+4)*10


class TestStallsAndFig3:
    def test_receiver_stalls_while_waiting_for_grants(self):
        """Fig. 3: a subsystem with a pending local event must stall until
        the peer's safe time covers it."""
        cosim = CoSimulation()
        ss1 = cosim.add_subsystem(cosim.add_node("n1"), "ss1")
        ss2 = cosim.add_subsystem(cosim.add_node("n2"), "ss2")

        def slow_sender(comp):
            # C4's peer: sends late, forcing ss1 to hold at its horizon.
            yield Advance(15.0)
            yield Send("out", "x")

        def c4(comp):
            # Has a self-scheduled event at t=20 it must NOT process
            # before ss2's message at 15 arrives.
            comp.got = None
            t = yield WaitUntil(20.0)
            comp.wait_done_at = t

        def c4_listener(comp):
            t, v = yield Receive("in")
            comp.got = (t, v)

        sender = FunctionComponent("sender", slow_sender, ports={"out": "out"})
        waiter = FunctionComponent("waiter", c4)
        listener = FunctionComponent("listener", c4_listener,
                                     ports={"in": "in"})
        ss2.add(sender)
        ss1.add(waiter)
        ss1.add(listener)
        channel = cosim.connect(ss1, ss2)
        net1 = ss1.wire("x", listener.port("in"))
        net2 = ss2.wire("x", sender.port("out"))
        channel.split_net(net1, net2)
        cosim.run()
        assert listener.got == (15.0, "x")
        assert waiter.wait_done_at == 20.0
        # ss1 must have stalled at least once waiting for ss2's grant.
        assert cosim.stalls() >= 1


class TestDeadlockDetection:
    def test_blocked_receive_terminates_cleanly(self):
        """A consumer waiting forever just ends the run (no event left),
        it is not a deadlock."""
        sink = []
        cosim = build_two_subsystems([], sink)
        # producer sends nothing; consumer expects nothing
        cosim.run()
        assert cosim._reached(float("inf"), finish=True)
