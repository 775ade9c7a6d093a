"""Chandy-Lamport snapshots and optimistic channel recovery."""

import pytest

from repro.core import Advance, CheckpointError, FunctionComponent, Receive, Send
from repro.distributed import ChannelMode, CoSimulation, StragglerError


def producer(values, period=1.0):
    def behave(comp):
        for value in values:
            yield Advance(period)
            yield Send("out", value)
    return behave


def collector(sink, count):
    """Collects into *component state* (rolled back correctly on restore)
    and mirrors the final result into ``sink`` when done."""
    def behave(comp):
        comp.collected = []
        for __ in range(count):
            t, v = yield Receive("in")
            comp.collected.append((t, v))
        sink.extend(comp.collected)
    return behave


def two_subsystem_system(values, sink, *, mode=ChannelMode.CONSERVATIVE,
                         snapshot_interval=None, consumer_work=None,
                         producer_name="sa", consumer_name="sb"):
    """Producer on one node, consumer (optionally with busy self-work that
    lets it run ahead) on another.

    The cooperative executor visits subsystems in name order, so naming
    the consumer side first makes it race ahead of the producer — the way
    a genuinely parallel deployment would.
    """
    cosim = CoSimulation(snapshot_interval=snapshot_interval)
    ss_a = cosim.add_subsystem(cosim.add_node("na"), producer_name)
    ss_b = cosim.add_subsystem(cosim.add_node("nb"), consumer_name)
    prod = FunctionComponent("prod", producer(values), ports={"out": "out"})
    cons = FunctionComponent("cons", collector(sink, len(values)),
                             ports={"in": "in"})
    ss_a.add(prod)
    ss_b.add(cons)
    if consumer_work is not None:
        ss_b.add(consumer_work)
    channel = cosim.connect(ss_a, ss_b, mode=mode)
    channel.split_net(ss_a.wire("link", prod.port("out")),
                      ss_b.wire("link", cons.port("in")))
    return cosim


class TestChandyLamport:
    def test_snapshot_completes_and_is_consistent(self):
        sink = []
        cosim = two_subsystem_system([1, 2, 3, 4], sink)
        cosim.run(until=2.0)
        snap_id = cosim.snapshot()
        snap = cosim.registry.snapshots[snap_id]
        assert snap.complete
        assert set(snap.cuts) == {"sa", "sb"}
        for cut in snap.cuts.values():
            assert cut.checkpoint_id is not None

    def test_marks_travel_all_channels(self):
        sink = []
        cosim = two_subsystem_system([1], sink)
        cosim.run()
        cosim.snapshot()
        managers = cosim._managers
        total_sent = sum(m.marks_sent for m in managers.values())
        total_received = sum(m.marks_received for m in managers.values())
        assert total_sent == total_received == 2   # one per direction

    def test_in_flight_message_recorded_as_channel_state(self):
        """A signal sent before the sender's cut but not yet received must
        land in the recorded channel state."""
        sink = []
        cosim = two_subsystem_system([9], sink)
        cosim.start()
        ss_a = cosim.subsystem("sa")
        # Run the producer side only: its message is now in flight.
        ss_a.run()
        assert cosim.transport.pending("nb") >= 1
        # Initiate at the *receiver*: its cut happens before it sees the
        # message, the sender cuts on mark receipt after having sent it.
        node_b = cosim.node("nb")
        snap_id = cosim._managers["nb"].initiate(cosim.subsystem("sb"))
        for __ in range(6):
            for node in cosim._ordered_nodes():
                node.pump()
        snap = cosim.registry.snapshots[snap_id]
        assert snap.complete
        recorded = snap.recorded_messages()
        assert len(recorded) == 1
        assert recorded[0].payload[1] == "link"

    def test_duplicate_marks_ignored(self):
        """A subsystem checkpoints exactly once per identifier."""
        sink = []
        cosim = two_subsystem_system([1, 2], sink)
        cosim.run()
        before = len(cosim.subsystem("sa").checkpoints)
        cosim.snapshot()
        after = len(cosim.subsystem("sa").checkpoints)
        assert after == before + 1

    def test_snapshot_ids_are_unique(self):
        sink = []
        cosim = two_subsystem_system([1], sink)
        cosim.run()
        ids = {cosim.snapshot() for __ in range(3)}
        assert len(ids) == 3


class TestOptimisticChannels:
    def _run_optimistic(self, values, *, snapshot_interval=1.0):
        sink = []
        # The consumer has private busy-work letting its subsystem run far
        # ahead of the producer — the straggler trigger.
        def busy(comp):
            for __ in range(50):
                yield Advance(1.0)
                yield Send("tick", comp.local_time)

        def tock(comp):
            while True:
                yield Receive("in")

        busy_c = FunctionComponent("busy", busy, ports={"tick": "out"})
        tock_c = FunctionComponent("tock", tock, ports={"in": "in"})
        cosim = two_subsystem_system(
            values, sink, mode=ChannelMode.OPTIMISTIC,
            snapshot_interval=snapshot_interval,
            producer_name="zz-producer", consumer_name="aa-consumer")
        ss_b = cosim.subsystem("aa-consumer")
        ss_b.add(busy_c)
        ss_b.add(tock_c)
        ss_b.wire("busyline", busy_c.port("tick"), tock_c.port("in"))
        cosim.run()
        return cosim, sink

    def test_results_match_conservative_reference(self):
        values = [10, 20, 30, 40, 50]
        reference_sink = []
        reference = two_subsystem_system(values, reference_sink)
        reference.run()
        cosim, sink = self._run_optimistic(values)
        assert sink == reference_sink

    def test_rollbacks_happened(self):
        cosim, sink = self._run_optimistic([1, 2, 3])
        assert cosim.recovery.rollbacks, \
            "the consumer ran 50s ahead; stragglers were inevitable"

    def test_initial_snapshot_taken_automatically(self):
        cosim, sink = self._run_optimistic([1])
        assert cosim.registry.snapshots

    def test_no_rollbacks_when_consumer_cannot_run_ahead(self):
        """Without private work the consumer just waits: optimism never
        mispredicts."""
        sink = []
        values = [1, 2, 3]
        cosim = two_subsystem_system(values, sink,
                                     mode=ChannelMode.OPTIMISTIC,
                                     snapshot_interval=1.0)
        cosim.run()
        assert sink == [(1.0, 1), (2.0, 2), (3.0, 3)]
        assert not cosim.recovery.rollbacks

    def test_conservative_window_set_after_rollback(self):
        cosim, sink = self._run_optimistic([1, 2, 3])
        first_straggler = cosim.recovery.rollbacks[0][0]
        assert cosim.recovery.conservative_until >= first_straggler

    def test_a_straggler_while_the_marks_settle_retakes_the_cut(self):
        """The second cut opens with the first word in flight; its marks
        pump that word into the consumer, which has run past it.  The
        rollback abandons the open cut — one local image taken, one mark
        sent and flushed — and the cut is taken again, under its id, from
        the restored state.  It completes, and the stores keep exactly
        the images of the snapshots the registry holds."""
        cosim, sink = self._run_optimistic([1, 2, 3])
        report = cosim.report()
        snapshots = cosim.registry.snapshots
        assert list(snapshots) == ["snap-1", "snap-2", "snap-3", "snap-4"]
        assert all(snap.complete for snap in snapshots.values())
        assert cosim.recovery.rollbacks == [(1.0, "snap-1", 0.0)]
        assert report.counter("snapshot.cuts") == 2 * len(snapshots) + 1
        assert report.counter("rollback.messages_dropped") == 1
        for name, subsystem in cosim.subsystems.items():
            assert len(subsystem.checkpoints) == len(snapshots)
            assert sorted(subsystem.checkpoints.image(snap.cuts[name]
                                                      .checkpoint_id).label
                          for snap in snapshots.values()) == \
                sorted(f"{snapshot_id}@{name}" for snapshot_id in snapshots)
        assert sink == [(1.0, 1), (2.0, 2), (3.0, 3)]


class TestRecoveryEscalation:
    def test_unrecoverable_without_snapshots_raises(self):
        from repro.distributed.channel import StragglerError
        from repro.distributed.optimistic import RecoveryManager
        from repro.distributed.snapshot import SnapshotRegistry
        from repro.transport import InMemoryTransport

        manager = RecoveryManager({}, InMemoryTransport(), SnapshotRegistry())
        with pytest.raises(CheckpointError):
            manager.choose_snapshot(
                StragglerError("s", channel_id="ch", straggler_time=5.0),
                receiver="sb")

    def test_a_cut_is_eligible_only_if_its_channel_state_can_be_replayed(
            self):
        """A message recorded as in-flight channel state is re-injected
        after the restore, so it must belong to a subsystem here and be
        stamped no earlier than that receiver's cut."""
        from types import SimpleNamespace

        from repro.distributed.optimistic import RecoveryManager
        from repro.distributed.snapshot import (GlobalSnapshot,
                                                SnapshotRegistry, SubsystemCut)
        from repro.transport import InMemoryTransport, Message, MessageKind

        endpoint = SimpleNamespace(
            subsystem=SimpleNamespace(node=SimpleNamespace(name="nb")))
        manager = RecoveryManager(
            {"sb": SimpleNamespace(channels={"ch": endpoint})},
            InMemoryTransport(), SnapshotRegistry())

        def snapshot(stamp, dst="nb"):
            word = Message(kind=MessageKind.SIGNAL, src="na", dst=dst,
                           channel="ch", time=stamp)
            return GlobalSnapshot("s", cuts={
                "sa": SubsystemCut("s", "sa", 1, 2.0),
                "sb": SubsystemCut("s", "sb", 1, 3.0,
                                   recorded={"ch": [word]})},
                expected={"sa", "sb"})

        straggler = StragglerError("late", channel_id="ch",
                                   straggler_time=5.0)
        assert manager.eligible(snapshot(4.0), straggler, "sb")
        assert not manager.eligible(snapshot(2.5), straggler, "sb")
        assert not manager.eligible(snapshot(4.0, dst="nx"), straggler, "sb")
