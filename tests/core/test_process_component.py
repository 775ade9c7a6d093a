"""Process components: run-until-receive semantics and two-level time."""

import pytest

from repro.core import (
    Advance,
    FunctionComponent,
    PortDirection,
    ProcessComponent,
    Receive,
    Send,
    SimulationError,
    Simulator,
    Sync,
    WaitUntil,
)


def make_pair(producer_behaviour, consumer_behaviour):
    sim = Simulator()
    producer = FunctionComponent("producer", producer_behaviour,
                                 ports={"out": "out"})
    consumer = FunctionComponent("consumer", consumer_behaviour,
                                 ports={"in": "in"})
    sim.add(producer)
    sim.add(consumer)
    sim.wire("link", producer.port("out"), consumer.port("in"))
    return sim, producer, consumer


class TestBasicFlow:
    def test_values_arrive_in_order_with_times(self):
        got = []

        def produce(comp):
            for value in [10, 20, 30]:
                yield Advance(1.0)
                yield Send("out", value)

        def consume(comp):
            for __ in range(3):
                time, value = yield Receive("in")
                got.append((time, value))

        sim, producer, consumer = make_pair(produce, consume)
        sim.run()
        assert got == [(1.0, 10), (2.0, 20), (3.0, 30)]

    def test_producer_runs_ahead_of_system_time(self):
        seen_system_times = []

        def produce(comp):
            yield Advance(100.0)        # runs way ahead immediately
            yield Send("out", "x")

        def consume(comp):
            time, value = yield Receive("in")
            seen_system_times.append((time, comp.system_time))

        sim, producer, consumer = make_pair(produce, consume)
        sim.run()
        # Delivery happens when system time reaches the send time.
        assert seen_system_times == [(100.0, 100.0)]
        assert producer.local_time == 100.0

    def test_receive_waits_for_late_value(self):
        got = []

        def produce(comp):
            yield Advance(5.0)
            yield Send("out", "late")

        def consume(comp):
            yield Advance(1.0)            # consumer pauses at local time 1
            time, value = yield Receive("in")
            got.append((time, value, comp.local_time))

        sim, __, ___ = make_pair(produce, consume)
        sim.run()
        assert got == [(5.0, "late", 5.0)]

    def test_early_value_consumed_at_pause_point(self):
        got = []

        def produce(comp):
            yield Send("out", "early")     # sent at t=0

        def consume(comp):
            yield Advance(8.0)             # consumer is ahead
            time, value = yield Receive("in")
            got.append((time, value))

        sim, __, ___ = make_pair(produce, consume)
        sim.run()
        # Value arrived at 0 but is consumed at the receive point (t=8).
        assert got == [(8.0, "early")]

    def test_finished_flag(self):
        def produce(comp):
            yield Send("out", 1)

        def consume(comp):
            yield Receive("in")

        sim, producer, consumer = make_pair(produce, consume)
        sim.run()
        assert producer.finished and consumer.finished

    def test_negative_advance_rejected(self):
        def bad(comp):
            yield Advance(-1.0)

        sim = Simulator()
        sim.add(FunctionComponent("bad", bad))
        with pytest.raises(SimulationError):
            sim.run()


class TestWaitAndSync:
    def test_wait_until_future(self):
        trace = []

        def waiter(comp):
            t = yield WaitUntil(4.0)
            trace.append(t)

        sim = Simulator()
        sim.add(FunctionComponent("w", waiter))
        sim.run()
        assert trace == [4.0]

    def test_wait_until_past_is_noop(self):
        trace = []

        def waiter(comp):
            yield Advance(9.0)
            t = yield WaitUntil(4.0)
            trace.append((t, comp.local_time))

        sim = Simulator()
        sim.add(FunctionComponent("w", waiter))
        sim.run()
        assert trace == [(9.0, 9.0)]

    def test_sync_sees_same_instant_signals_first(self):
        """A signal stamped at the sync instant is delivered before resume."""
        order = []

        def produce(comp):
            yield Advance(3.0)
            yield Send("out", "data")     # arrives at consumer at t=3

        def consume(comp):
            yield Advance(3.0)
            yield Sync()
            order.append(("resumed", bool(comp.port("in").buffer)))

        sim, __, consumer = make_pair(produce, consume)
        sim.run()
        assert order == [("resumed", True)]

    def test_interleaving_is_deterministic(self):
        """Two identical runs produce identical traces."""

        def build():
            trace = []

            def ping(comp):
                for i in range(5):
                    yield Advance(1.0)
                    yield Send("out", f"p{i}")

            def pong(comp):
                for __ in range(5):
                    t, v = yield Receive("in")
                    trace.append((t, v))

            sim, *_ = make_pair(ping, pong)
            sim.run()
            return trace

        assert build() == build()


class TestMultiComponent:
    def test_three_stage_pipeline(self):
        results = []

        def source(comp):
            for i in range(4):
                yield Advance(1.0)
                yield Send("out", i)

        def relay(comp):
            while True:
                t, v = yield Receive("in")
                yield Advance(0.25)
                yield Send("out", v * 10)

        def sink(comp):
            for __ in range(4):
                t, v = yield Receive("in")
                results.append((t, v))

        sim = Simulator()
        src = FunctionComponent("src", source, ports={"out": "out"})
        mid = FunctionComponent("mid", relay, ports={"in": "in", "out": "out"})
        snk = FunctionComponent("snk", sink, ports={"in": "in"})
        for c in (src, mid, snk):
            sim.add(c)
        sim.wire("a", src.port("out"), mid.port("in"))
        sim.wire("b", mid.port("out"), snk.port("in"))
        sim.run()
        assert results == [(1.25, 0), (2.25, 10), (3.25, 20), (4.25, 30)]

    def test_net_delay_shifts_arrival(self):
        got = []

        def produce(comp):
            yield Send("out", "v")

        def consume(comp):
            t, v = yield Receive("in")
            got.append(t)

        sim = Simulator()
        p = FunctionComponent("p", produce, ports={"out": "out"})
        c = FunctionComponent("c", consume, ports={"in": "in"})
        sim.add(p)
        sim.add(c)
        sim.wire("link", p.port("out"), c.port("in"), delay=2.5)
        sim.run()
        assert got == [2.5]

    def test_fanout_net_reaches_all_listeners(self):
        got = {}

        def produce(comp):
            yield Send("out", 42)

        def listener(name):
            def consume(comp):
                t, v = yield Receive("in")
                got[name] = v
            return consume

        sim = Simulator()
        p = FunctionComponent("p", produce, ports={"out": "out"})
        sim.add(p)
        ports = [p.port("out")]
        for name in ["c1", "c2", "c3"]:
            c = FunctionComponent(name, listener(name), ports={"in": "in"})
            sim.add(c)
            ports.append(c.port("in"))
        sim.wire("bus", *ports)
        sim.run()
        assert got == {"c1": 42, "c2": 42, "c3": 42}


class TestSubclassStyle:
    def test_process_component_subclass(self):
        class Counter(ProcessComponent):
            def __init__(self, name):
                super().__init__(name)
                self.total = 0
                self.add_port("in", PortDirection.IN)

            def run(self):
                while True:
                    t, v = yield Receive("in")
                    self.total += v

        class Feeder(ProcessComponent):
            def __init__(self, name):
                super().__init__(name)
                self.add_port("out", PortDirection.OUT)

            def run(self):
                for v in [1, 2, 3]:
                    yield Advance(1.0)
                    yield Send("out", v)

        sim = Simulator()
        counter = sim.add(Counter("counter"))
        feeder = sim.add(Feeder("feeder"))
        sim.wire("n", feeder.port("out"), counter.port("in"))
        sim.run()
        assert counter.total == 6
        assert counter.local_time == 3.0
