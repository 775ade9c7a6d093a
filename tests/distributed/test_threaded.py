"""The thread-per-node executor: parity with the cooperative one."""

import json

import pytest

from repro.core import (
    Advance,
    FunctionComponent,
    Receive,
    Send,
    SimulationError,
)
from repro.distributed import ChannelMode, ThreadedCoSimulation
from repro.observability import TraceKind
from repro.observability.export import trace_records
from repro.observability.flight import ENV_DIR
from repro.transport import TcpTransport


def producer(values):
    def behave(comp):
        for v in values:
            yield Advance(1.0)
            yield Send("out", v)
    return behave


def consumer(count):
    def behave(comp):
        comp.got = []
        for __ in range(count):
            t, v = yield Receive("in")
            comp.got.append((t, v))
    return behave


def build(runner, values):
    ss_a = runner.add_subsystem(runner.add_node("na"), "sa")
    ss_b = runner.add_subsystem(runner.add_node("nb"), "sb")
    prod = FunctionComponent("prod", producer(values), ports={"out": "out"})
    cons = FunctionComponent("cons", consumer(len(values)),
                             ports={"in": "in"})
    ss_a.add(prod)
    ss_b.add(cons)
    channel = runner.connect(ss_a, ss_b)
    channel.split_net(ss_a.wire("w", prod.port("out")),
                      ss_b.wire("w", cons.port("in")))
    return cons


class TestThreadedExecutor:
    def test_pipeline_over_inmemory_transport(self):
        runner = ThreadedCoSimulation()
        cons = build(runner, list(range(8)))
        runner.run(timeout=30.0)
        assert cons.got == [(float(i + 1), i) for i in range(8)]

    def test_quiesce_timeout_dumps_the_black_box(self, tmp_path,
                                                 monkeypatch):
        """A run that fails to quiesce raises — and leaves its flight
        ring on disk, ending in the abort note."""
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        runner = ThreadedCoSimulation()
        build(runner, list(range(8)))
        with pytest.raises(SimulationError, match="did not quiesce"):
            runner.run(timeout=0.0)
        path, = tmp_path.glob("pia-flight-threaded-*.jsonl")
        header, *lines = [json.loads(line)
                          for line in path.read_text().splitlines()]
        assert header["reason"] == "quiesce-timeout"
        records = trace_records(lines)
        assert (records[-1]["kind"], records[-1]["reason"]) \
            == (TraceKind.ABORT, "quiesce-timeout")

    def test_pipeline_over_tcp(self):
        with TcpTransport() as transport:
            runner = ThreadedCoSimulation(transport=transport)
            cons = build(runner, [5, 6, 7])
            runner.run(timeout=30.0)
            assert cons.got == [(1.0, 5), (2.0, 6), (3.0, 7)]

    def test_bidirectional_ping_pong(self):
        runner = ThreadedCoSimulation()
        ss_a = runner.add_subsystem(runner.add_node("na"), "sa")
        ss_b = runner.add_subsystem(runner.add_node("nb"), "sb")

        def ping(comp):
            comp.rounds = []
            for i in range(6):
                yield Advance(1.0)
                yield Send("tx", i)
                t, v = yield Receive("rx")
                comp.rounds.append((t, v))

        def pong(comp):
            while True:
                t, v = yield Receive("rx")
                yield Advance(0.5)
                yield Send("tx", v * 2)

        a = FunctionComponent("ping", ping, ports={"tx": "out", "rx": "in"})
        b = FunctionComponent("pong", pong, ports={"tx": "out", "rx": "in"})
        ss_a.add(a)
        ss_b.add(b)
        channel = runner.connect(ss_a, ss_b)
        channel.split_net(ss_a.wire("f", a.port("tx")),
                          ss_b.wire("f", b.port("rx")))
        channel.split_net(ss_b.wire("r", b.port("tx")),
                          ss_a.wire("r", a.port("rx")))
        runner.run(timeout=30.0)
        assert a.rounds == [(1.5 * (i + 1), 2 * i) for i in range(6)]

    def test_optimistic_channels_rejected(self):
        runner = ThreadedCoSimulation()
        ss_a = runner.add_subsystem(runner.add_node("na"), "sa")
        ss_b = runner.add_subsystem(runner.add_node("nb"), "sb")
        with pytest.raises(SimulationError):
            runner.connect(ss_a, ss_b, mode=ChannelMode.OPTIMISTIC)

    def test_matches_cooperative_executor(self):
        from repro.distributed import CoSimulation
        values = list(range(10))

        def run_cooperative():
            cosim = CoSimulation()
            ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
            ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")
            prod = FunctionComponent("prod", producer(values),
                                     ports={"out": "out"})
            cons = FunctionComponent("cons", consumer(len(values)),
                                     ports={"in": "in"})
            ss_a.add(prod)
            ss_b.add(cons)
            channel = cosim.connect(ss_a, ss_b)
            channel.split_net(ss_a.wire("w", prod.port("out")),
                              ss_b.wire("w", cons.port("in")))
            cosim.run()
            return cons.got

        runner = ThreadedCoSimulation()
        cons = build(runner, values)
        runner.run(timeout=30.0)
        assert cons.got == run_cooperative()


class TestThreadedFaults:
    def test_component_error_propagates_to_caller(self):
        """A component crashing on one node's thread must surface as the
        run's exception, not vanish into the worker."""
        runner = ThreadedCoSimulation()
        ss_a = runner.add_subsystem(runner.add_node("na"), "sa")
        ss_b = runner.add_subsystem(runner.add_node("nb"), "sb")

        def bomb(comp):
            yield Advance(1.0)
            yield Send("out", "boom")
            raise RuntimeError("component exploded")

        def victim(comp):
            while True:
                yield Receive("in")

        a = FunctionComponent("bomb", bomb, ports={"out": "out"})
        b = FunctionComponent("victim", victim, ports={"in": "in"})
        ss_a.add(a)
        ss_b.add(b)
        channel = runner.connect(ss_a, ss_b)
        channel.split_net(ss_a.wire("w", a.port("out")),
                          ss_b.wire("w", b.port("in")))
        with pytest.raises(RuntimeError, match="component exploded"):
            runner.run(timeout=30.0)
