"""TCP transport failure paths: dead peers, eviction, typed errors.

The deterministic experiments live on :class:`InMemoryTransport`; these
tests exercise the *real* failure modes of the socket transport — peers
closing mid-frame, refused connections, dead cached sockets — and the
resilience layer that turns them into retries and typed
:class:`LinkDown` errors instead of raw socket exceptions.
"""

import socket
import threading
import time

import pytest

from repro.core import (
    Advance,
    FunctionComponent,
    LinkDown,
    NodeFailure,
    Receive,
    RemoteCallError,
    Send,
    TransportError,
)
from repro.distributed import ThreadedCoSimulation
from repro.faults import FaultPlan, LinkFaults, NO_RETRY, NodeCrash, RetryPolicy
from repro.observability import Telemetry
from repro.transport import Message, MessageKind, TcpTransport
from repro.transport.tcp import _LENGTH, _recv_frame

#: Fail fast in tests: two attempts, no real sleeping.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.001, jitter=0.0,
                         deadline=5.0)


def _msg(src="a", dst="b", time=1.0, payload=None, kind=MessageKind.SIGNAL):
    return Message(kind=kind, src=src, dst=dst, channel="ch", time=time,
                   payload=payload)


def _poll_until(transport, name, count, timeout=5.0):
    got = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        got.extend(transport.poll(name))
        if len(got) >= count:
            return got
        time.sleep(0.005)
    raise AssertionError(f"only {len(got)}/{count} messages arrived")


class TestFraming:
    def test_peer_closing_mid_frame_raises_connection_error(self):
        """A peer that dies after the length prefix must surface as a
        ConnectionError, never as a short read treated as success."""
        a, b = socket.socketpair()
        try:
            a.sendall(_LENGTH.pack(100) + b"only part of the frame")
            a.close()
            with pytest.raises(ConnectionError):
                _recv_frame(b)
        finally:
            b.close()

    def test_peer_closing_before_length_raises(self):
        a, b = socket.socketpair()
        try:
            a.close()
            with pytest.raises(ConnectionError):
                _recv_frame(b)
        finally:
            b.close()


class TestRegistration:
    def test_double_register_rejected(self):
        with TcpTransport() as transport:
            transport.register("a")
            with pytest.raises(TransportError):
                transport.register("a")

    def test_send_to_unknown_destination(self):
        with TcpTransport(retry_policy=FAST_RETRY) as transport:
            transport.register("a")
            with pytest.raises(TransportError):
                transport.send(_msg(dst="ghost"))


class TestDeadPeers:
    def test_call_against_dead_endpoint_raises_link_down(self):
        """The peer's listener is gone: every reconnect is refused and the
        caller gets a typed LinkDown after the attempt budget, not a raw
        ConnectionRefusedError."""
        with TcpTransport(retry_policy=FAST_RETRY) as transport:
            transport.register("a")
            transport.register("b", call_handler=lambda m: m.reply(
                MessageKind.SAFE_TIME_REPLY, time=0.0))
            transport._endpoints["b"].close()    # kill the listener only
            with pytest.raises(LinkDown) as err:
                transport.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))
            assert err.value.src == "a"
            assert err.value.dst == "b"
            assert err.value.attempts == FAST_RETRY.max_attempts

    def test_retry_jitter_under_a_fault_plan_is_the_plans_draw(self):
        """With a fault plane attached, a real-error retry draws its
        backoff jitter from the plan (seeded per link and retry), so a
        chaos run's retry timing is a function of its seed."""
        from repro.faults import FaultInjector
        injector = FaultInjector(FaultPlan(seed=5), retry_policy=FAST_RETRY)
        draws = []
        drawn = injector.backoff_uniform
        injector.backoff_uniform = \
            lambda *key: draws.append((key, drawn(*key))) or draws[-1][1]
        with TcpTransport() as transport:
            transport.attach_faults(injector)
            transport.register("a")
            transport.register("b", call_handler=lambda m: m.reply(
                MessageKind.SAFE_TIME_REPLY, time=0.0))
            transport._endpoints["b"].close()    # kill the listener only
            with pytest.raises(LinkDown):
                transport.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))
        assert [key for key, __ in draws] == [("a", "b", 0)]
        assert draws[0][1] == FaultPlan(seed=5).uniform("backoff", "a",
                                                        "b", 0)

    def test_send_evicts_dead_cached_socket_and_reconnects(self):
        """A cached connection killed under us (NAT timeout, peer restart)
        must be evicted and transparently re-established."""
        telemetry = Telemetry()
        with TcpTransport(retry_policy=FAST_RETRY) as transport:
            transport.attach_telemetry(telemetry)
            transport.register("a")
            transport.register("b")
            transport.send(_msg(payload=1))
            _poll_until(transport, "b", 1)
            stale = transport._conns[("a", "b")]
            stale.sock.shutdown(socket.SHUT_RDWR)
            stale.sock.close()
            transport.send(_msg(payload=2))
            got = _poll_until(transport, "b", 1)
            assert got[0].payload == 2
            assert transport._conns[("a", "b")] is not stale
            assert telemetry.registry.counter("transport.evictions").value >= 1

    def test_no_retry_policy_fails_on_first_socket_error(self):
        with TcpTransport(retry_policy=NO_RETRY) as transport:
            transport.register("a")
            transport.register("b")
            transport.send(_msg(payload=1))
            _poll_until(transport, "b", 1)
            stale = transport._conns[("a", "b")]
            stale.sock.close()
            with pytest.raises(LinkDown) as err:
                transport.send(_msg(payload=2))
            assert err.value.attempts == 1

    def test_close_during_in_flight_traffic(self):
        """Tearing the transport down under a busy sender must end the
        sender promptly with a typed error, never a hang."""
        transport = TcpTransport(retry_policy=FAST_RETRY)
        transport.register("a")
        transport.register("b")
        outcome = {}

        def blast():
            sent = 0
            try:
                for i in range(100_000):
                    transport.send(_msg(payload=i))
                    sent += 1
            except (LinkDown, TransportError) as exc:
                outcome["error"] = exc
            outcome["sent"] = sent

        sender = threading.Thread(target=blast, daemon=True)
        sender.start()
        time.sleep(0.05)
        transport.close()
        sender.join(timeout=10.0)
        assert not sender.is_alive(), "sender hung after transport.close()"
        assert "error" in outcome
        assert outcome["sent"] < 100_000


class TestCallConnectionReuse:
    def test_repeated_calls_share_one_connection(self):
        """The regression: every call() used to open (and leak through
        teardown latency) a fresh socket.  N calls on a healthy link must
        dial exactly once."""
        telemetry = Telemetry()
        with TcpTransport() as transport:
            transport.attach_telemetry(telemetry)
            transport.register("a")
            transport.register("b", call_handler=lambda m: m.reply(
                MessageKind.SAFE_TIME_REPLY, time=m.time + 1.0))
            for index in range(20):
                reply = transport.call(_msg(
                    kind=MessageKind.SAFE_TIME_REQUEST, time=float(index)))
                assert reply.time == float(index) + 1.0
            assert telemetry.registry.counter(
                "transport.call_connects").value == 1
            assert set(transport._call_conns) == {("a", "b")}

    def test_dead_call_connection_is_evicted_and_redialled(self):
        with TcpTransport(retry_policy=FAST_RETRY) as transport:
            transport.register("a")
            transport.register("b", call_handler=lambda m: m.reply(
                MessageKind.SAFE_TIME_REPLY, time=0.0))
            transport.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))
            stale = transport._call_conns[("a", "b")]
            stale.sock.shutdown(socket.SHUT_RDWR)
            stale.sock.close()
            reply = transport.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))
            assert reply.kind is MessageKind.SAFE_TIME_REPLY
            assert transport._call_conns[("a", "b")] is not stale


class TestRemoteHandlerErrors:
    def test_handler_exception_surfaces_as_remote_call_error(self):
        """The regression: a raising call handler used to kill the
        connection thread silently, leaving the caller to time out into
        a misleading LinkDown.  It must surface as a typed error naming
        the remote exception."""
        def handler(message):
            if message.payload == "bad":
                raise ValueError("handler rejected the request")
            return message.reply(MessageKind.SAFE_TIME_REPLY, time=9.0)

        with TcpTransport(retry_policy=FAST_RETRY) as transport:
            transport.register("a")
            transport.register("b", call_handler=handler)
            with pytest.raises(RemoteCallError) as err:
                transport.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST,
                                    payload="bad"))
            assert err.value.remote_type == "ValueError"
            assert "handler rejected the request" in str(err.value)
            assert err.value.src == "a"
            assert err.value.dst == "b"
            # The link survived: the very next call succeeds over the
            # same cached connection, without burning retry budget.
            reply = transport.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST,
                                        payload="good"))
            assert reply.time == 9.0


class TestCloseResetsLinkState:
    def test_close_clears_peers_batches_and_wire_counters(self):
        """The regression: close() left peers, queued batches and wire
        counters behind, so a reused transport resolved stale addresses
        and started with the wire balance already broken."""
        transport = TcpTransport(batching=True, retry_policy=FAST_RETRY)
        transport.register("a")
        transport.register("b")
        transport.set_peer("ghost", 1)          # a stale remote address
        transport.send(_msg(payload="delivered"))
        transport.flush_batches(src="a")
        _poll_until(transport, "b", 1)
        transport.send(_msg(payload="still queued"))    # never flushed
        assert transport.batcher.pending() == 1
        assert transport.wire_out > 0

        transport.close()
        assert transport._peers == {}
        assert transport.batcher.pending() == 0
        assert transport.wire_out == 0
        assert transport.wire_in == 0

        # A fresh register/send cycle on the same instance works and
        # starts its accounting from zero.
        transport.register("a")
        transport.register("b")
        transport.send(_msg(payload="second life"))
        transport.flush_batches(src="a")
        got = _poll_until(transport, "b", 1)
        assert [m.payload for m in got] == ["second life"]
        assert transport.wire_out == transport.wire_in == 1
        transport.close()


def _build_pipeline(runner, values):
    ss_a = runner.add_subsystem(runner.add_node("na"), "sa")
    ss_b = runner.add_subsystem(runner.add_node("nb"), "sb")

    def producer(comp):
        for v in values:
            yield Advance(1.0)
            yield Send("out", v)

    def consumer(comp):
        comp.got = []
        for __ in range(len(values)):
            t, v = yield Receive("in")
            comp.got.append((t, v))

    prod = FunctionComponent("prod", producer, ports={"out": "out"})
    cons = FunctionComponent("cons", consumer, ports={"in": "in"})
    ss_a.add(prod)
    ss_b.add(cons)
    channel = runner.connect(ss_a, ss_b)
    channel.split_net(ss_a.wire("w", prod.port("out")),
                      ss_b.wire("w", cons.port("in")))
    return cons


class TestLossyTcpCoSimulation:
    """The acceptance bar: a seeded plan dropping >10% of inter-node
    traffic over real sockets must not change the co-simulation's result,
    and same-seed runs must report identical fault counters."""

    VALUES = list(range(10))

    def _lossy_run(self, seed):
        with TcpTransport() as transport:
            runner = ThreadedCoSimulation(
                transport=transport,
                fault_plan=FaultPlan(seed=seed,
                                     default=LinkFaults(drop=0.15)))
            cons = _build_pipeline(runner, self.VALUES)
            runner.run(timeout=60.0)
            return list(cons.got), runner.fault_injector.summary()

    def _fault_free_run(self):
        with TcpTransport() as transport:
            runner = ThreadedCoSimulation(transport=transport)
            cons = _build_pipeline(runner, self.VALUES)
            runner.run(timeout=60.0)
            return list(cons.got)

    def test_result_matches_fault_free_run(self):
        got, counts = self._lossy_run(seed=21)
        assert got == self._fault_free_run()
        assert counts["fault.drops"] > 0
        assert counts["retry.attempts"] == counts["fault.drops"]

    def test_same_seed_runs_report_identical_counters(self):
        first_got, first_counts = self._lossy_run(seed=9)
        second_got, second_counts = self._lossy_run(seed=9)
        assert first_got == second_got
        assert first_counts == second_counts
        assert first_counts

    def test_report_surfaces_fault_counters(self):
        with TcpTransport() as transport:
            runner = ThreadedCoSimulation(
                transport=transport,
                fault_plan=FaultPlan(seed=21,
                                     default=LinkFaults(drop=0.15)))
            cons = _build_pipeline(runner, self.VALUES)
            runner.run(timeout=60.0)
            report = runner.report(title="lossy tcp")
            assert report.faults == runner.fault_injector.summary()
            assert report.faults["fault.drops"] > 0


class TestThreadedNodeCrash:
    def test_scheduled_crash_surfaces_as_typed_node_failure(self):
        """The threaded executor cannot roll back: a confirmed crash is a
        typed NodeFailure naming the node, never a hang or raw error."""
        with TcpTransport() as transport:
            runner = ThreadedCoSimulation(
                transport=transport,
                fault_plan=FaultPlan(
                    seed=0, crashes=(NodeCrash("nb", at_time=4.0),)))
            _build_pipeline(runner, list(range(10)))
            with pytest.raises(NodeFailure) as err:
                runner.run(timeout=60.0)
            assert err.value.node == "nb"

    def test_crash_of_unknown_node_rejected_up_front(self):
        from repro.core import ConfigurationError
        runner = ThreadedCoSimulation(
            fault_plan=FaultPlan(
                seed=0, crashes=(NodeCrash("ghost", at_time=1.0),)))
        _build_pipeline(runner, [1, 2])
        with pytest.raises(ConfigurationError):
            runner.run(timeout=10.0)


class TestForkSafety:
    """Sockets must never be shared across a fork/spawn boundary: the
    transport detects the PID change and quietly rebuilds itself in the
    child (fresh server sockets, no inherited cached connections)."""

    def _warm(self, transport):
        transport.register("a", lambda m: None)
        transport.register("b", lambda m: None)
        transport.send(_msg(payload="warm"))
        assert [m.payload for m in _poll_until(transport, "b", 1)] == ["warm"]

    def test_pid_change_drops_connections_and_rebinds(self):
        telemetry = Telemetry()
        with TcpTransport() as transport:
            transport.attach_telemetry(telemetry)
            self._warm(transport)
            old_conns = dict(transport._conns)
            old_endpoint = transport._endpoints["b"]
            assert old_conns, "expected a warmed cached connection"
            # An undelivered message parked in the inbox must survive.
            transport.send(_msg(payload="kept"))
            deadline = time.monotonic() + 5.0
            while not old_endpoint.inbox and time.monotonic() < deadline:
                time.sleep(0.005)
            assert old_endpoint.inbox

            transport._pid = -1    # simulate crossing a process boundary
            transport.send(_msg(payload="after"))

            counters = telemetry.registry.snapshot()["counters"]
            assert counters.get("transport.fork_resets") == 1
            assert not old_conns.keys() & transport._conns.keys() or \
                all(transport._conns[k] is not old_conns[k]
                    for k in old_conns.keys() & transport._conns.keys())
            for conn in old_conns.values():
                assert conn.sock.fileno() == -1, "inherited socket left open"
            assert transport._endpoints["b"] is not old_endpoint
            got = _poll_until(transport, "b", 2)
            assert [m.payload for m in got] == ["kept", "after"]

    def test_forked_child_gets_its_own_sockets(self):
        import os
        if not hasattr(os, "fork"):
            pytest.skip("requires os.fork")
        with TcpTransport() as transport:
            self._warm(transport)
            pid = os.fork()
            if pid == 0:
                # Child: the inherited transport must reset itself and be
                # fully usable without touching the parent's sockets.
                status = 1
                try:
                    transport.send(_msg(payload="child"))
                    got = _poll_until(transport, "b", 1)
                    if [m.payload for m in got] == ["child"] \
                            and transport._pid == os.getpid():
                        status = 0
                except BaseException:
                    pass
                finally:
                    os._exit(status)
            __, code = os.waitpid(pid, 0)
            assert os.WIFEXITED(code) and os.WEXITSTATUS(code) == 0
            # Parent: completely unaffected by the child's reset.
            transport.send(_msg(payload="parent"))
            got = _poll_until(transport, "b", 1)
            assert [m.payload for m in got] == ["parent"]


class TestEpochFence:
    def test_a_frame_from_before_a_failover_is_dropped_and_counted(self):
        """A frame stamped with an older migration epoch than the
        receiver's is a ghost from before a failover: dropped at ingest
        and counted, never filed."""
        telemetry = Telemetry()
        with TcpTransport() as sender, TcpTransport() as receiver:
            sender.register("a")
            receiver.register("b")
            receiver.attach_telemetry(telemetry)
            sender.set_peer("b", receiver.local_port("b"))
            receiver.set_epoch(1)
            sender.send(_msg(payload="ghost"))
            deadline = time.monotonic() + 5.0
            while receiver.stale_epoch_drops == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert receiver.stale_epoch_drops == 1
            assert receiver.poll("b") == []
        assert telemetry.registry.snapshot()["counters"][
            "transport.stale_epoch_drops"] == 1
