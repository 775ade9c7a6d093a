"""Directed safe time: a channel end that cannot drive never restricts
its peer, so a one-way stream runs in windows — and the windows are
policed, not trusted.

The yardstick throughout is the same topology forced two-way: give the
consumer an ``INOUT`` port it never drives and its end *could* send, so
the pair runs the per-message protocol.  Simulated behaviour must be
identical; only the protocol traffic may differ."""

import dataclasses

import pytest

from repro.bench.workloads import (
    compute_star_spec,
    make_stream_consumer,
    streaming_pair,
    streaming_pair_spec,
)
from repro.core import (
    Advance,
    FunctionComponent,
    NodeFailure,
    Receive,
    Send,
    SimulationError,
    Subsystem,
    TopologyError,
    WaitUntil,
)
from repro.core.port import Port, PortDirection
from repro.distributed import CoSimulation, WorkerPool, build
from repro.distributed.node import WINDOW_EVENTS
from repro.distributed.topology import communication_edges
from repro.faults import FaultPlan, NodeCrash
from repro.observability import TraceKind
from repro.transport.message import Message, MessageKind

MESSAGES = 250
_HERE = "tests.distributed.test_directed_safe_time:"


def make_two_way_consumer(name, **kwargs):
    """The stream consumer with an ``INOUT`` port it never drives."""
    subsystem = make_stream_consumer(name, **kwargs)
    subsystem.component("consumer").port("in").direction = \
        PortDirection.INOUT
    return subsystem


def pair_spec(messages=MESSAGES, *, two_way=False):
    spec = streaming_pair_spec(messages, 1.0)
    if two_way:
        spec.nodes["n-cons"][0] = dataclasses.replace(
            spec.nodes["n-cons"][0], factory=_HERE + "make_two_way_consumer")
    return spec


@pytest.fixture(scope="module")
def pool():
    with WorkerPool() as shared:
        yield shared


@pytest.fixture
def run_calls(monkeypatch):
    """``{subsystem name: Subsystem.run calls}`` of this process."""
    calls = {}
    run = Subsystem.run

    def counted(self, *args, **kwargs):
        calls[self.name] = calls.get(self.name, 0) + 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Subsystem, "run", counted)
    return calls


def outcome(cosim):
    """What direction must not change (rows, received sequence where the
    consumer lives in this process, inter-node signal messages) and what
    it may (safe-time requests)."""
    if isinstance(cosim, CoSimulation):
        cosim.run()
    else:
        cosim.run(timeout=90.0)
    report = cosim.report()
    requests = sum(row["safe_time_requests"] for row in report.subsystems)
    received = None
    if hasattr(cosim, "subsystems"):
        received = list(cosim.subsystems["a-consumer"]
                        .component("consumer").received)
    behaviour = (sorted((row["name"], row["time"], row["dispatched"])
                        for row in report.subsystems),
                 received,
                 report.link_totals()["messages"] - 2 * requests)
    return behaviour, requests


CELLS = {
    "cosim": ("cosim", {}),
    "threaded": ("threaded", {}),
    "multiprocess-tcp": ("multiprocess", {"transport": "tcp"}),
    "multiprocess-shm": ("multiprocess", {"transport": "shm"}),
}


class TestOneWayEqualsTwoWay:
    @pytest.mark.parametrize("batching", [False, True],
                             ids=["unbatched", "batched"])
    @pytest.mark.parametrize("cell", CELLS)
    def test_same_behaviour_far_less_protocol(self, cell, batching, pool,
                                              run_calls):
        executor, kwargs = CELLS[cell]
        if executor == "multiprocess":
            kwargs = dict(kwargs, pool=pool)

        def run(two_way):
            run_calls.clear()
            cosim = build(pair_spec(two_way=two_way), executor,
                          batching=batching, **kwargs)
            return outcome(cosim) + (dict(run_calls),)

        two_way, two_way_requests, two_way_calls = run(True)
        one_way, one_way_requests, one_way_calls = run(False)
        assert one_way == two_way
        assert one_way[0] == [("a-consumer", float(MESSAGES), MESSAGES),
                              ("z-producer", float(MESSAGES), MESSAGES)]
        assert one_way[2] == MESSAGES
        # One request teaches the producer its peer is silent; the
        # consumer asks once more when the producer has finished.  Under
        # threads and processes that grant can arrive ahead of messages
        # still on the wire and is then refused (the in-flight check), so
        # the consumer asks again after its next pump — a handful, not
        # one per message.
        if executor == "cosim":
            assert one_way_requests <= 2
        else:
            assert one_way_requests <= MESSAGES // 10
        if not batching:
            # (Batched, the two-way pair needs no requests either: its
            # grants ride on the frames.)
            assert two_way_requests >= MESSAGES
        # Worker processes run their subsystems out of sight; threads
        # deliver to the consumer as the messages trickle in.  The
        # producer's window is the same everywhere it can be seen.
        if executor != "multiprocess":
            assert MESSAGES / one_way_calls["z-producer"] >= 100
            assert MESSAGES / two_way_calls["z-producer"] <= 2
        if executor == "cosim":
            assert 2 * MESSAGES / sum(one_way_calls.values()) >= 100


def signal_counters(cosim):
    report = cosim.report()
    return (report.link_totals()["frames"],
            report.counter("safetime.requests"),
            report.counter("safetime.pushed"))


class TestSilentEnd:
    def test_batched_ships_no_more_frames_than_unbatched(self):
        frames = {}
        for batching in (False, True):
            cosim = build(pair_spec(), batching=batching)
            cosim.run()
            frames[batching] = signal_counters(cosim)[0]
        # 250 data frames plus two request/reply pairs, against one
        # frame per window plus the pushes.
        assert frames[False] == MESSAGES + 4
        assert frames[True] < 10

    def test_consumption_reports_stop_once_a_served_reply_said_silent(self):
        def run(serve_first):
            cosim = build(pair_spec(40), batching=True)
            cosim.start()
            back = next(iter(
                cosim.subsystems["a-consumer"].channels.values()))
            if serve_first:
                # The declaration reaches the producer on a reply it
                # blocked for: the one delivery that cannot be missed.
                cosim.nodes["n-prod"].clients["z-producer"].refresh(1.0)
                assert back.silence_served
            cosim.run()
            assert back.declared_silent
            assert back.injected == 40
            return signal_counters(cosim), back

        (__, requests, pushed), back = run(serve_first=False)
        # Heard on a push only: the silent end cannot know it arrived,
        # so it keeps reporting what it consumed.
        assert requests == 0 and pushed >= 2
        assert not back.silence_served and back.injected_reported == 40
        (__, requests, pushed), back = run(serve_first=True)
        assert requests == 1 and pushed == 0
        assert back.injected_reported == 0

    def test_unknown_means_sends(self):
        cosim = build(pair_spec(5))
        cosim.start()
        out = next(iter(cosim.subsystems["z-producer"].channels.values()))
        back = next(iter(cosim.subsystems["a-consumer"].channels.values()))
        assert out.sends and not out.listens
        assert back.listens and not back.sends
        # Nothing peeks at the other end: until a grant says otherwise
        # the producer keeps the ledger and a zero horizon.
        assert not out.peer_silent
        assert out.effective_horizon() == 0.0
        cosim.run()
        assert out.peer_silent and not out.pending_echoes
        assert out.effective_horizon() == float("inf")
        assert not back.peer_silent     # the producer does send

    def test_a_grant_is_still_refused_while_peer_traffic_is_in_flight(self):
        cosim = build(pair_spec(5))
        cosim.start()
        back = next(iter(cosim.subsystems["a-consumer"].channels.values()))
        # The producer claims three messages sent; none has arrived.
        assert not back.accept_grant(9.0, (0, 3))
        assert back.peer_grant == 0.0
        assert not back.accept_grant(9.0, (0, 3, True))
        assert not back.peer_silent
        back.injected = 3
        assert back.accept_grant(9.0, (0, 3))
        assert back.peer_grant == 9.0

    def test_a_message_into_the_past_still_raises(self):
        cosim = build(pair_spec(5))
        cosim.run()
        back = next(iter(cosim.subsystems["a-consumer"].channels.values()))
        with pytest.raises(SimulationError, match="violated"):
            back.receive_signal(Message(
                kind=MessageKind.SIGNAL, src="n-prod", dst="n-cons",
                channel=back.channel.channel_id, time=1.0,
                payload=("z-producer", "stream", 0)))

    def test_forward_after_declaring_silence_raises(self):
        cosim = build(pair_spec(5))
        cosim.run()
        consumer = cosim.subsystems["a-consumer"]
        back = next(iter(consumer.channels.values()))
        assert back.declared_silent
        # A driver appears on the consumer's half-net after the fact.
        late = Port("late", PortDirection.OUT)
        consumer.net("stream").connect(late)
        assert back.sends
        late.drive(99, consumer.now + 1.0)
        with pytest.raises(SimulationError, match="declaring this end silent"):
            consumer.run()


# --- one instant under every executor ---------------------------------
#: In-process ``build`` cells a scheduled crash must read the same
#: under — executor and a policy that stops at the crash, so the crashed
#: node's clock can be read — and the multiprocess deployment matrix.
IN_PROCESS = [("cosim", dict(failure_policy="raise")),
              ("threaded", dict())]
MP_MATRIX = [("tcp", True), ("tcp", False), ("shm", True), ("shm", False)]
REPEATS = 5


def star_spec():
    """``w0`` has events at 1.25 and 2.25 and nothing on 2.0."""
    return compute_star_spec(2, 6, words=50)


def w0_crash(at_time=2.0):
    return FaultPlan(seed=3, crashes=(NodeCrash("n-w0", at_time=at_time),))


def rows(report):
    return sorted((row["name"], row["time"], row["dispatched"])
                  for row in report.subsystems)


def crashes_recorded(report):
    return [(r["subject"], r["time"]) for r in report.trace_records
            if r["kind"] == TraceKind.NODE_CRASH]


class Snapshots(list):
    """A ``status_listener`` keeping every snapshot of a multiprocess
    run (pass ``status_interval=0.0`` to get every sweep)."""

    def __call__(self, snapshot):
        self.append(snapshot)

    def clock(self, node, *, epoch=None):
        """``node``'s subsystem clock in the last snapshot (of migration
        epoch ``epoch``)."""
        last = [snap for snap in self
                if epoch is None or snap["epoch"] == epoch][-1]
        return last["nodes"][node]["subsystems"][0]["time"]


class TestServiceInstants:
    """No window crosses an instant at which the executor owes a
    service; the service fires there — when the run has got to it,
    under all three executors, whatever the deployment, and the same on
    every repeat (the multiprocess coordinator used to fire whenever a
    wall-clock probe happened to see global time past the instant)."""

    def test_periodic_snapshots_keep_their_cadence(self, run_calls):
        cosim = streaming_pair(12, 1.0, snapshot_interval=3.0)
        cosim.run()
        periodic = cosim.registry.completed()
        assert len(periodic) >= 2
        # Windows, not lockstep: a few run calls per snapshot period.
        assert sum(run_calls.values()) <= 12
        reference = streaming_pair(12, 1.0)
        reference.run()
        assert cosim.component("consumer").received \
            == reference.component("consumer").received

    def test_crash_at_an_instant_no_event_lands_on(self):
        reference = streaming_pair(12, 1.0)
        reference.run()
        cosim = build(streaming_pair_spec(12, 1.0), snapshot_interval=3.0,
                      fault_plan=FaultPlan(
                          seed=0, crashes=(NodeCrash("n-cons", at_time=4.5),)))
        cosim.run()
        assert cosim.report().counter("fault.node_crashes") == 1
        assert cosim.report().counter("fault.node_recoveries") == 1
        assert cosim.component("consumer").received \
            == reference.component("consumer").received
        assert [(name, ss.now, ss.scheduler.dispatched)
                for name, ss in sorted(cosim.subsystems.items())] \
            == [(name, ss.now, ss.scheduler.dispatched)
                for name, ss in sorted(reference.subsystems.items())]

    def test_threaded_crash_fires_at_its_virtual_instant(self):
        """Not whenever the coordinator's wall-clock sweep notices: the
        crashed node has run everything up to the instant and nothing
        after it."""
        runner = build(streaming_pair_spec(200, 1.0), "threaded",
                       fault_plan=FaultPlan(
                           seed=0, crashes=(NodeCrash("n-cons", at_time=4.0),)))
        with pytest.raises(NodeFailure) as err:
            runner.run(timeout=60.0)
        assert err.value.node == "n-cons"
        consumer = runner.subsystems["a-consumer"]
        assert consumer.now == 4.0
        assert consumer.component("consumer").received \
            == [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]

    def test_an_endless_source_yields_to_the_round_loop(self):
        cosim = CoSimulation()
        ss_prod = cosim.add_subsystem(cosim.add_node("n-prod"), "producer")
        ss_cons = cosim.add_subsystem(cosim.add_node("n-cons"), "consumer")

        def produce(comp):
            while True:     # blocks each period; Advance would not
                yield WaitUntil(comp.local_time + 1.0)
                yield Send("out", 0)

        def consume(comp):
            while True:
                yield Receive("in")

        source = FunctionComponent("source", produce, ports={"out": "out"})
        sink = FunctionComponent("sink", consume, ports={"in": "in"})
        ss_prod.add(source)
        ss_cons.add(sink)
        cosim.connect(ss_prod, ss_cons).split_net(
            ss_prod.wire("stream", source.port("out")),
            ss_cons.wire("stream", sink.port("in")))
        dispatched = cosim.run(max_rounds=2)
        assert 0 < dispatched <= 2 * 2 * WINDOW_EVENTS
        assert cosim.transport.pending() <= WINDOW_EVENTS

    @pytest.mark.parametrize("batching", [True, False])
    @pytest.mark.parametrize("executor,kwargs", IN_PROCESS)
    def test_in_process_crash_instant(self, executor, kwargs, batching):
        """A lost node is lost at its instant, batched or not: no
        survivor runs on while the executor makes up its mind."""
        for __ in range(REPEATS):
            run = build(star_spec(), executor, fault_plan=w0_crash(),
                        batching=batching, **kwargs)
            with pytest.raises(NodeFailure, match="global time 1.25 ") as err:
                run.run()
            assert err.value.node == "n-w0"
            assert crashes_recorded(run.report()) == [("n-w0", 1.25)]
            assert [run.subsystems[name].now
                    for name in ("hub", "w0", "w1")] == [1.5, 1.25, 1.25]

    @pytest.mark.parametrize("batching", [True, False])
    def test_cooperative_recovery_at_the_instant(self, batching):
        reference = build(star_spec(), batching=batching)
        reference.run()
        run = build(star_spec(), fault_plan=w0_crash(), batching=batching,
                    failure_policy="recover")
        run.run()
        report = run.report()
        assert crashes_recorded(report) == [("n-w0", 1.25)]
        assert report.counter("fault.node_recoveries") == 1
        assert rows(report) == rows(reference.report())

    @pytest.mark.parametrize("transport,batching", MP_MATRIX)
    def test_multiprocess_crash_raises_at_the_instant(self, pool, transport,
                                                      batching):
        for __ in range(REPEATS):
            seen = Snapshots()
            run = build(star_spec(), "multiprocess", fault_plan=w0_crash(),
                        pool=pool, transport=transport, batching=batching)
            with pytest.raises(NodeFailure, match="global time 1.25 ") as err:
                run.run(timeout=60.0, status_listener=seen,
                        status_interval=0.0)
            assert err.value.node == "n-w0"
            assert seen[-1]["global_time"] == 1.25
            assert [seen.clock(node) for node in ("n-hub", "n-w0", "n-w1")] \
                == [1.5, 1.25, 1.25]

    @pytest.mark.parametrize("transport,batching", MP_MATRIX)
    def test_multiprocess_relocations_at_the_instant(self, pool, transport,
                                                     batching):
        reference = build(star_spec(), "multiprocess", pool=pool,
                          transport=transport, batching=batching)
        reference.run(timeout=60.0)
        for __ in range(REPEATS):
            seen = Snapshots()
            crashed = build(star_spec(), "multiprocess", pool=pool,
                            fault_plan=w0_crash(), failure_policy="recover",
                            transport=transport, batching=batching)
            crashed.run(timeout=60.0, status_listener=seen,
                        status_interval=0.0)
            assert [(m.kind, m.node, m.reason, m.at_global_time)
                    for m in crashed.migrations] \
                == [("failover", "n-w0", "scheduled-crash", 1.25)]
            assert seen.clock("n-w0", epoch=0) == 1.25
            assert crashes_recorded(crashed.report()) == [("n-w0", 1.25)]
            assert rows(crashed.report()) == rows(reference.report())

            moved = build(star_spec(), "multiprocess", pool=pool,
                          failure_policy="recover", transport=transport,
                          batching=batching)
            moved.migrate_at("n-w1", 2.0)
            moved.run(timeout=60.0)
            assert [(m.kind, m.node, m.reason, m.at_global_time)
                    for m in moved.migrations] \
                == [("migrate", "n-w1", "requested", 1.25)]
            assert rows(moved.report()) == rows(reference.report())

    @pytest.mark.parametrize("at_time,until", [(100.0, float("inf")),
                                               (5.0, 3.0)],
                             ids=["after-the-last-event", "beyond-until"])
    @pytest.mark.parametrize("executor,kwargs", [
        ("cosim", {}), ("threaded", {}), ("multiprocess", {}),
        ("multiprocess", dict(failure_policy="recover"))],
        ids=["cosim", "threaded", "mp-raise", "mp-recover"])
    def test_a_crash_the_run_never_gets_to_never_fires(
            self, pool, executor, kwargs, at_time, until):
        """No work left is not "got there": the run returns, unharmed."""
        if executor == "multiprocess":
            kwargs = dict(kwargs, pool=pool)
        reference = build(star_spec(), executor, **kwargs)
        reference.run(until)
        run = build(star_spec(), executor, fault_plan=w0_crash(at_time),
                    **kwargs)
        run.run(until)
        report = run.report()
        assert crashes_recorded(report) == []
        assert report.counter("fault.node_crashes") == 0
        assert report.migrations == []
        assert rows(report) == rows(reference.report())


def relay(*, ring):
    """``sa --> sb --> sc`` where ``sb`` is a pure relay: its half-net
    ``w`` is tapped by both channels and has no visible port.  ``ring``
    closes ``sc --> sa`` the same way."""
    cosim = CoSimulation()
    sa, sb, sc = (cosim.add_subsystem(cosim.add_node(f"n{x}"), f"s{x}")
                  for x in "abc")

    def source(comp):
        for value in range(3):
            yield Advance(1.0)
            yield Send("out", value)

    def sink(comp):
        comp.got = []
        while True:
            __, value = yield Receive("in")
            comp.got.append(value)

    src = FunctionComponent("src", source, ports={"out": "out"})
    dst = FunctionComponent("dst", sink, ports={"in": "in"})
    sa.add(src)
    sc.add(dst)
    sa.wire("w", src.port("out"))
    sb.wire("w")
    sc.wire("w", dst.port("in"))
    cosim.connect(sa, sb, nets=("w",))
    cosim.connect(sb, sc, nets=("w",))
    if ring:
        cosim.connect(sc, sa, nets=("w",))
    return cosim


class TestRelayTopology:
    """Direction counts another channel's hidden port on a shared
    half-net: a relay both listens and sends."""

    def test_relay_chain_has_its_edges(self):
        cosim = relay(ring=False)
        edges = communication_edges(cosim.channels.values())
        assert edges == [("sa", "sb"), ("sb", "sc")]
        cosim.run()
        assert cosim.component("dst").got == [0, 1, 2]

    def test_relay_ring_is_refused(self):
        with pytest.raises(TopologyError, match="non-simple cycles"):
            relay(ring=True).run()

    def test_a_relay_is_never_declared_silent(self):
        cosim = relay(ring=False)
        cosim.run()
        towards_sc = cosim.subsystems["sb"].channels["ch2-sb-sc"]
        from_sb = cosim.subsystems["sc"].channels["ch2-sb-sc"]
        assert towards_sc.sends and not towards_sc.declared_silent
        assert from_sb.declared_silent and towards_sc.peer_silent


if __name__ == "__main__":
    # The five-repeat probe: where does each executor record the crash
    # of ``w0_crash()``, and where a ``migrate_at("n-w1", 2.0)``?
    def in_process(executor, kwargs):
        run = build(star_spec(), executor, fault_plan=w0_crash(), **kwargs)
        with pytest.raises(NodeFailure):
            run.run()
        return crashes_recorded(run.report())[0][1]

    def multiprocess(pool, **kwargs):
        run = build(star_spec(), "multiprocess", pool=pool, **kwargs)
        if "fault_plan" not in kwargs:
            run.migrate_at("n-w1", 2.0)
        try:
            run.run(timeout=60.0)
        except NodeFailure as failure:
            return float(str(failure).split("global time ")[1].split()[0])
        return run.migrations[0].at_global_time

    for executor, kwargs in IN_PROCESS:
        print(f"{executor:32}",
              [in_process(executor, kwargs) for __ in range(REPEATS)])
    with WorkerPool() as shared:
        for label, kwargs in [
                ("multiprocess raise", dict(fault_plan=w0_crash())),
                ("multiprocess recover, crash",
                 dict(fault_plan=w0_crash(), failure_policy="recover")),
                ("multiprocess recover, migrate_at",
                 dict(failure_policy="recover"))]:
            print(f"{label:32}", [multiprocess(shared, **kwargs)
                                  for __ in range(REPEATS)])
