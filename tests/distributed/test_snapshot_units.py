"""Unit-level coverage of the snapshot data structures and registry."""

import pytest

from repro.bench.workloads import streaming_pair
from repro.distributed.snapshot import (
    GlobalSnapshot,
    SnapshotManager,
    SnapshotRegistry,
    SubsystemCut,
)
from repro.transport import Message, MessageKind

from tests.distributed.test_snapshot_optimistic import two_subsystem_system


def _cut(snapshot_id, name, time, pending=()):
    cut = SubsystemCut(snapshot_id, name, checkpoint_id=1, time=time)
    cut.pending = set(pending)
    cut.recorded = {channel: [] for channel in pending} or {}
    return cut


class TestSubsystemCut:
    def test_complete_when_no_pending_marks(self):
        cut = _cut("s", "ss", 1.0)
        assert cut.complete
        cut.pending.add("ch1")
        assert not cut.complete


class TestGlobalSnapshot:
    def test_complete_requires_all_subsystems(self):
        snap = GlobalSnapshot("s", expected={"a", "b"})
        snap.cuts["a"] = _cut("s", "a", 1.0)
        assert not snap.complete
        snap.cuts["b"] = _cut("s", "b", 2.0)
        assert snap.complete

    def test_complete_requires_closed_channels(self):
        snap = GlobalSnapshot("s", expected={"a"})
        snap.cuts["a"] = _cut("s", "a", 1.0, pending=["ch"])
        assert not snap.complete

    def test_times(self):
        snap = GlobalSnapshot("s", expected={"a", "b"})
        snap.cuts["a"] = _cut("s", "a", 1.0)
        snap.cuts["b"] = _cut("s", "b", 4.0)
        assert snap.time_of("a") == 1.0
        assert snap.max_time() == 4.0

    def test_recorded_messages_flatten(self):
        snap = GlobalSnapshot("s", expected={"a"})
        cut = _cut("s", "a", 1.0)
        cut.recorded = {"ch": [Message(MessageKind.SIGNAL, "x", "y",
                                       channel="ch", time=0.5)]}
        snap.cuts["a"] = cut
        assert len(snap.recorded_messages()) == 1


class TestRegistry:
    def test_ensure_is_idempotent(self):
        registry = SnapshotRegistry()
        first = registry.ensure("s1", {"a"})
        second = registry.ensure("s1", {"a", "b"})
        assert first is second
        assert first.expected == {"a"}     # first writer wins

    def test_completed_sorted_by_time(self):
        registry = SnapshotRegistry()
        late = registry.ensure("late", {"a"})
        late.cuts["a"] = _cut("late", "a", 9.0)
        early = registry.ensure("early", {"a"})
        early.cuts["a"] = _cut("early", "a", 2.0)
        open_snap = registry.ensure("open", {"a"})
        open_snap.cuts["a"] = _cut("open", "a", 5.0, pending=["ch"])
        done = registry.completed()
        assert [snap.snapshot_id for snap in done] == ["early", "late"]

    def test_drop(self):
        registry = SnapshotRegistry()
        registry.ensure("s", {"a"})
        registry.drop("s")
        registry.drop("s")                 # idempotent
        assert registry.snapshots == {}

    def test_ids_numbered_per_registry(self):
        """Each registry counts its own cuts, so a second run in one
        process sends the same mark payloads as the first."""
        first, second = SnapshotRegistry(), SnapshotRegistry()
        assert [first.new_id(), first.new_id()] == ["snap-1", "snap-2"]
        assert second.new_id() == "snap-1"


class TestOneWayBackToACut:
    """``RecoveryManager.rollback_to`` ends in the same per-node body as a
    worker's restore (ISSUE 24).  Rows marked *fails on the parent* did
    so at 6c33e8e, natively and under ``PIA_PURE=1``."""

    @staticmethod
    def _in_flight_word_cut():
        """[9, 8, 7] from ``na`` to ``nb``; the first word is on the wire
        when the receiver cuts, so the cut records it as channel state."""
        sink = []
        cosim = two_subsystem_system([9, 8, 7], sink)
        cosim.start()
        cosim.subsystem("sa").run(until=1.0)
        assert cosim.transport.pending("nb") >= 1
        # A fixed id: the mark carries it, and the byte column below must
        # not depend on how many snapshots this process took before.
        snap_id = cosim._managers["nb"].initiate(cosim.subsystem("sb"),
                                                 "snap-1")
        for __ in range(6):
            for node in cosim._ordered_nodes():
                node.pump()
        snap = cosim.registry.snapshots[snap_id]
        assert snap.complete and len(snap.recorded_messages()) == 1
        return cosim, sink, snap

    @classmethod
    def _rolled_back_run(cls):
        cosim, sink, snap = cls._in_flight_word_cut()
        cosim.run(until=2.5)
        cosim.recovery.rollback_to(snap)
        cosim.run()
        return cosim, sink, cosim.report()

    def test_recorded_word_is_delivered_once_and_charged_once(self):
        """*Fails on the parent* (10 / 444 / 10): the rollback re-sent the
        recorded word through the transport, so a word that crossed the
        wire once was charged — and rolled by a fault plan — twice."""
        cosim, sink, report = self._rolled_back_run()
        assert sink == [(1.0, 9), (2.0, 8), (3.0, 7)]
        assert sorted((row["name"], row["time"], row["dispatched"])
                      for row in report.subsystems) == \
            [("sa", 3.0, 3), ("sb", 3.0, 3)]
        (endpoint,) = cosim.subsystem("sb").channels.values()
        assert endpoint.injected == 3
        (row,) = [row for row in report.links
                  if (row["src"], row["dst"]) == ("na", "nb")]
        # The uninterrupted traffic plus one restore: the 43-byte SIGNAL
        # recorded in the cut is not sent again.
        assert (row["messages"], row["bytes"], row["frames"]) == (9, 365, 9)

    def test_events_queued_at_the_cut_keep_their_cause(self):
        """*Fails on the parent*: a lit run that rolls back re-dispatches
        the events its image held without their ``cause``."""
        sink = []
        cosim = two_subsystem_system([9, 8, 7], sink)
        cosim.start()
        cosim.subsystem("sa").run(until=1.0)
        cosim.node("nb").pump()         # the word is queued at sb, unrun
        (queued,) = cosim.subsystem("sb").scheduler.queue.snapshot()
        assert queued.cause is not None
        snap = cosim.registry.snapshots[cosim.snapshot(initiator="sb")]
        cosim.run(until=2.5)
        cosim.recovery.rollback_to(snap)
        (restored,) = cosim.subsystem("sb").scheduler.queue.snapshot()
        assert restored.cause == queued.cause
        cosim.run()
        records = cosim.report().trace_records
        start = max(index for index, rec in enumerate(records)
                    if rec["kind"] == "checkpoint-restore")
        redone = [rec for rec in records[start:]
                  if rec["kind"] == "dispatch" and rec["subject"] == "sb"]
        assert [rec["time"] for rec in redone] == [1.0, 2.0, 3.0]
        assert redone[0]["cause"] == queued.cause == ("na", 0, 1)
        assert all("cause" in rec for rec in redone)
        assert sink == [(1.0, 9), (2.0, 8), (3.0, 7)]

    def test_restore_node_is_the_only_body(self):
        """Nothing but ``restore_node`` voids a ledger, and a rollback
        re-injects nothing through the transport."""
        import inspect
        from pathlib import Path

        import repro
        from repro.distributed.optimistic import RecoveryManager

        calls = [path.name for path in Path(repro.__file__).parent.rglob("*.py")
                 for line in path.read_text().splitlines()
                 if "reset_sync_state(" in line and "def " not in line]
        assert calls == ["migration.py"]
        assert "transport.send" not in inspect.getsource(
            RecoveryManager.rollback_to)


class TestObserverWindow:
    """A node observes its incoming signals only while one of its cuts
    records: from the local cut to the last mark that closes it."""

    @staticmethod
    def _counting(monkeypatch):
        """Count every call of the Chandy-Lamport observer."""
        calls = []
        observe = SnapshotManager.observe_signal

        def counting(self, endpoint, message):
            calls.append(message)
            return observe(self, endpoint, message)

        monkeypatch.setattr(SnapshotManager, "observe_signal", counting)
        return calls

    @staticmethod
    def _closed(cosim):
        return all(not node.signal_observers and
                   not cosim._managers[name].open_cuts
                   for name, node in cosim.nodes.items())

    def test_periodic_cuts_of_a_settled_stream_observe_nothing(
            self, monkeypatch):
        """A conservative pair's windows stop at each cut instant, so
        every word sent before it has been taken by the round end the cut
        fires at: all 600 signals arrive while no cut records — the
        parent observed each one against every snapshot the registry
        held."""
        calls = self._counting(monkeypatch)
        cosim = streaming_pair(600, 1.0, snapshot_interval=10.0)
        cosim.run()
        snapshots = cosim.registry.snapshots.values()
        assert len(snapshots) >= 50
        assert all(snap.complete and not snap.recorded_messages()
                   for snap in snapshots)
        assert calls == [] and self._closed(cosim)

    def test_cuts_mid_stream_record_the_parents_channel_state(
            self, monkeypatch):
        """Fifty consumer cuts, one after each round, while the producer's
        words sit in the consumer's inbox: the channel state of each is
        what the parent recorded (ten words after the first cut and after
        every third one from the third on, nothing after the others), and
        only the words a window recorded were observed."""
        calls = self._counting(monkeypatch)
        cosim = streaming_pair(600, 1.0, snapshot_interval=10.0)
        manager = cosim._managers["n-cons"]
        consumer = cosim.subsystem("a-consumer")
        ours = []
        while len(ours) < 50:
            cosim.run(max_rounds=cosim.rounds + 1)
            ours.append(manager.initiate(consumer))
        cosim.run()
        snapshots = cosim.registry.snapshots
        recorded = [[message.time
                     for message in snapshots[snap_id].recorded_messages()]
                    for snap_id in ours]
        expected = [[] for __ in ours]
        for k, index in enumerate([0, *range(2, 50, 3)]):
            expected[index] = [float(t) for t in range(10 * k + 1,
                                                       10 * k + 11)]
        assert recorded == expected
        assert all(snap.complete for snap in snapshots.values())
        assert len(calls) == sum(map(len, recorded)) == 170
        assert self._closed(cosim)


if __name__ == "__main__":
    # PYTHONPATH=src:. python tests/distributed/test_snapshot_units.py
    __, sink, report = TestOneWayBackToACut._rolled_back_run()
    for row in report.links:
        print(f"link {row['src']}->{row['dst']}: {row['messages']} / "
              f"{row['bytes']} / {row['frames']} messages / bytes / frames")
    print("sink:", sink)
