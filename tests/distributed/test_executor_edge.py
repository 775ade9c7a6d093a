"""Executor edge cases: bounds, deadlock reporting, periodic snapshots,
global switchpoints, misconfiguration errors."""

import pytest

from repro.core import (
    Advance,
    ConfigurationError,
    FunctionComponent,
    Interface,
    Receive,
    ReceiveTransfer,
    Send,
    Transfer,
    WaitUntil,
)
from repro.distributed import (
    ChannelMode,
    CoSimulation,
    ThreadedCoSimulation,
)
from repro.distributed.multiprocess.worker import WorkerSystem
from repro.faults import RetryPolicy
from repro.protocols import packet_protocol
from repro.transport.latency import SAME_HOST


def simple_pair(cosim=None):
    cosim = CoSimulation() if cosim is None else cosim
    ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
    ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")

    def produce(comp):
        for index in range(5):
            yield Advance(1.0)
            yield Send("out", index)

    def consume(comp):
        comp.got = []
        for __ in range(5):
            t, v = yield Receive("in")
            comp.got.append(v)

    p = FunctionComponent("p", produce, ports={"out": "out"})
    c = FunctionComponent("c", consume, ports={"in": "in"})
    ss_a.add(p)
    ss_b.add(c)
    channel = cosim.connect(ss_a, ss_b)
    channel.split_net(ss_a.wire("w", p.port("out")),
                      ss_b.wire("w", c.port("in")))
    return cosim, c


class TestRunBounds:
    def test_until_is_respected_and_resumable(self):
        cosim, consumer = simple_pair()
        cosim.run(until=2.0)
        assert consumer.got == [0, 1]
        assert not cosim._reached(float("inf"), finish=True)
        cosim.run(until=3.5)
        assert consumer.got == [0, 1, 2]
        cosim.run()
        assert consumer.got == [0, 1, 2, 3, 4]
        assert cosim._reached(float("inf"), finish=True)

    def test_max_rounds_limits_work(self):
        cosim, consumer = simple_pair()
        cosim.run(max_rounds=1)
        assert len(consumer.got) <= 5
        cosim.run()
        assert consumer.got == [0, 1, 2, 3, 4]

    def test_run_twice_after_finish_is_harmless(self):
        cosim, consumer = simple_pair()
        cosim.run()
        events = cosim.run()
        assert events == 0
        assert consumer.got == [0, 1, 2, 3, 4]


def worker_system(*, retry_policy=None):
    """The ``LiveSystem`` a multiprocess worker boots through (there
    every argument comes from the worker's bootstrap spec)."""
    return WorkerSystem(transport=None, default_model=SAME_HOST,
                        telemetry=None, fault_plan=None,
                        retry_policy=retry_policy, batching=False)


@pytest.mark.parametrize("executor", [CoSimulation, ThreadedCoSimulation,
                                      worker_system])
class TestSharedBuilder:
    """Both in-process executors and every multiprocess worker build
    through one ``LiveSystem``: the same calls, the same typed errors."""

    def test_duplicate_node(self, executor):
        cosim = executor()
        cosim.add_node("n")
        with pytest.raises(ConfigurationError):
            cosim.add_node("n")

    def test_duplicate_subsystem(self, executor):
        cosim = executor()
        node = cosim.add_node("n")
        cosim.add_subsystem(node, "ss")
        with pytest.raises(ConfigurationError):
            cosim.add_subsystem(node, "ss")

    def test_add_subsystem_on_unknown_node(self, executor):
        cosim = executor()
        with pytest.raises(ConfigurationError, match="no-such-node"):
            cosim.add_subsystem("no-such-node", "ss")

    def test_connect_requires_attached_subsystems(self, executor):
        from repro.core import Subsystem
        cosim = executor()
        with pytest.raises(ConfigurationError):
            cosim.connect(Subsystem("x"), Subsystem("y"))

    def test_connect_takes_explicit_channel_id(self, executor):
        cosim = executor()
        ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
        ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")
        channel = cosim.connect(ss_a, ss_b, channel_id="link")
        assert channel.channel_id == "link"
        assert cosim.channels == {"link": channel}

    def test_generated_channel_ids_keep_their_prefix(self, executor):
        # Ids travel on the wire: each executor keeps its own.
        cosim = executor()
        ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
        ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")
        channel = cosim.connect(ss_a, ss_b)
        prefix = {CoSimulation: "ch1-", ThreadedCoSimulation: "tch1-",
                  WorkerSystem: "mch1-"}
        assert channel.channel_id == prefix[type(cosim)] + "sa-sb"

    def test_duplicate_channel_id(self, executor):
        cosim = executor()
        ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
        ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")
        ss_c = cosim.add_subsystem(cosim.add_node("nc"), "sc")
        first = cosim.connect(ss_a, ss_b, channel_id="link")
        with pytest.raises(ConfigurationError, match="duplicate channel"):
            cosim.connect(ss_a, ss_c, channel_id="link")
        assert cosim.channels == {"link": first}
        assert ss_a.channels == {"link": first.endpoints["sa"]}

    def test_self_channel(self, executor):
        cosim = executor()
        ss = cosim.add_subsystem(cosim.add_node("n"), "ss")
        with pytest.raises(ConfigurationError, match="to itself"):
            cosim.connect(ss, ss)
        assert not ss.channels

    def test_retry_policy_without_a_fault_plan_reaches_the_transport(
            self, executor):
        # A carrier with real links spends the budget on reconnects, so
        # the policy matters even when no fault is ever injected.
        policy = RetryPolicy(max_attempts=1)
        cosim = executor(retry_policy=policy)
        assert cosim.fault_injector is None
        assert cosim.transport.retry_policy is policy


class TestConfigurationErrors:
    def test_unknown_lookups(self):
        cosim = CoSimulation()
        with pytest.raises(ConfigurationError):
            cosim.node("ghost")
        with pytest.raises(ConfigurationError):
            cosim.subsystem("ghost")
        with pytest.raises(ConfigurationError):
            cosim.component("ghost")
        with pytest.raises(ConfigurationError):
            cosim.set_runlevel("ghost", "word")

    def test_channel_rejects_third_endpoint(self):
        cosim = CoSimulation()
        ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
        ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")
        ss_c = cosim.add_subsystem(cosim.add_node("nc"), "sc")
        channel = cosim.connect(ss_a, ss_b)
        with pytest.raises(ConfigurationError):
            channel.attach(ss_c, peer_subsystem="sa", peer_node="na")


class TestPeriodicSnapshots:
    def test_snapshots_taken_on_cadence(self):
        cosim, consumer = simple_pair()
        cosim.snapshot_interval = 2.0
        cosim.run()
        assert len(cosim.registry.completed()) >= 2

    def test_manual_snapshot_anytime(self):
        cosim, consumer = simple_pair()
        cosim.run(until=2.5)
        snap_id = cosim.snapshot()
        assert cosim.registry.snapshots[snap_id].complete
        cosim.run()
        assert consumer.got == [0, 1, 2, 3, 4]


class TestGlobalSwitchpoints:
    def test_condition_across_subsystems(self):
        """A switchpoint whose condition reads one subsystem's component
        and whose assignment targets another's — the paper's cross-host
        conjunct case."""
        cosim = CoSimulation()
        ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
        ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")

        def sender(comp):
            for __ in range(6):
                yield WaitUntil(comp.local_time + 1.0)
                yield Transfer("link", b"pay")

        def receiver(comp):
            while True:
                yield ReceiveTransfer("link")

        tx = FunctionComponent("tx", sender)
        tx.add_interface(Interface("link", packet_protocol(),
                                   level="word", out_port="o"))
        rx = FunctionComponent("rx", receiver)
        rx.add_interface(Interface("link", packet_protocol(),
                                   level="word", in_port="i"))
        ss_a.add(tx)
        ss_b.add(rx)
        channel = cosim.connect(ss_a, ss_b)
        channel.split_net(ss_a.wire("l", tx.port("o")),
                          ss_b.wire("l", rx.port("i")))
        cosim.add_switchpoint(
            "when tx.localtime >= 3.0 and rx.localtime >= 2.0: "
            "tx.link -> packet, rx.link -> packet")
        cosim.run()
        assert tx.interface("link").level == "packet"
        assert rx.interface("link").level == "packet"
        assert len(cosim.switchpoints.history) == 1

    SWITCHPOINT = "c.localtime >= 3: p -> fast"

    def _recorded(self, cosim, fired):
        cosim.switchpoints.apply = lambda target, level: fired.append(
            (cosim.global_time(),
             tuple(ss.scheduler.dispatched
                   for __, ss in sorted(cosim.subsystems.items()))))

    def _hooks(self, cosim):
        return [ss.scheduler.post_step_hooks
                for __, ss in sorted(cosim.subsystems.items())]

    def test_added_before_subsystems(self):
        cosim, fired = CoSimulation(), []
        self._recorded(cosim, fired)
        cosim.add_switchpoint(self.SWITCHPOINT)
        simple_pair(cosim)
        assert self._hooks(cosim) == [[cosim._poll_switchpoints]] * 2
        cosim.run()
        assert fired == [(3.0, (5, 3))]

    @pytest.mark.parametrize("route", ["add_switchpoint", "manager_add",
                                       "run_control"])
    def test_added_after_subsystems(self, route):
        from repro.core.runcontrol import parse
        cosim, __ = simple_pair()
        assert self._hooks(cosim) == [[], []]   # nothing polls per event
        fired = []
        self._recorded(cosim, fired)
        if route == "add_switchpoint":
            cosim.add_switchpoint(self.SWITCHPOINT)
        elif route == "manager_add":
            cosim.switchpoints.add(self.SWITCHPOINT)
        else:
            parse(f"[switchpoints]\n{self.SWITCHPOINT}\n").apply(cosim)
        assert self._hooks(cosim) == [[cosim._poll_switchpoints]] * 2
        cosim.run()
        assert fired == [(3.0, (5, 3))]

    def test_added_from_a_control_event_mid_run(self):
        """Registered at 3.5 when the condition already holds: the poll
        runs after that very CONTROL event."""
        from repro.core import Event, EventKind
        from repro.core.timestamp import PRIORITY_CONTROL, Timestamp
        cosim, __ = simple_pair()
        fired = []
        self._recorded(cosim, fired)
        cosim.subsystem("sb").scheduler.schedule(Event(
            Timestamp(3.5, PRIORITY_CONTROL), EventKind.CONTROL,
            target=lambda event: cosim.add_switchpoint(self.SWITCHPOINT)))
        cosim.run()
        assert fired == [(3.5, (5, 4))]

    def test_the_poll_runs_ahead_of_a_debugger_hook(self):
        """The debugger hooks every subsystem when it runs, not when it is
        built, so it is checked after the first run()."""
        from repro.debug import Debugger
        cosim, __ = simple_pair()
        debugger = Debugger(cosim)
        cosim.add_switchpoint(self.SWITCHPOINT)
        debugger.run()
        assert self._hooks(cosim) == [
            [cosim._poll_switchpoints, debugger._hook]] * 2

    def test_slider_across_subsystems(self):
        cosim, consumer = simple_pair()
        # sliders resolve component targets across every subsystem
        producer = cosim.component("p")
        levels = []
        slider = cosim.slider([], ["low", "high"])
        assert slider.level == "low"


class TestStats:
    def test_global_time_and_counters(self):
        cosim, consumer = simple_pair()
        cosim.run()
        assert cosim.global_time() >= 5.0
        assert cosim.rounds > 0
        assert cosim.cpu_seconds > 0
        assert cosim.safe_time_requests() > 0
