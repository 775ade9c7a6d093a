"""Every cut a run takes restores to the run it was taken from.

A cut meets the wire as it stands (DESIGN.md §5): what it catches in
flight its marks record as channel state, and a restore re-injects it.
The property: restore any completed cut of a streaming pair — optimistic
or conservative, one-way or with a return path, at any cadence — run on,
and the rows are the uninterrupted run's.  Some drawn optimistic cuts
catch a message in flight, so the channel-state half is exercised too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import streaming_pair
from repro.core.port import PortDirection
from repro.distributed import ChannelMode


def pair(mode, interval, count, two_way):
    """``count`` words from producer to consumer, the consumer with
    private busy-work that lets it run ahead of the stream."""
    cosim = streaming_pair(count, 1.0, mode=mode, consumer_work=2.0 * count,
                           snapshot_interval=interval)
    if two_way:
        cosim.component("consumer").port("in").direction = \
            PortDirection.INOUT
    return cosim


def rows(cosim):
    """What a restore must give back: per-subsystem progress, every
    component's, net's and interface's row, each channel end's message
    ledgers, and what the consumer got.  Link totals are left out: the
    abandoned run's traffic crossed the wire and stays counted there."""
    report = cosim.report()
    return (sorted((row["name"], row["time"], row["dispatched"])
                   for row in report.subsystems),
            report.components, report.nets, report.interfaces,
            [(row["name"], row["forwarded"], row["injected"])
             for row in report.channels],
            cosim.component("consumer").received)


def test_every_completed_cut_restores_to_the_uninterrupted_run():
    recorded = []

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(mode=st.sampled_from(list(ChannelMode)),
           interval=st.sampled_from([1.0, 2.5, 4.0]),
           count=st.integers(2, 8), two_way=st.booleans())
    def check(mode, interval, count, two_way):
        reference = pair(mode, interval, count, two_way)
        reference.run()
        expected = rows(reference)
        cuts = [snap.snapshot_id for snap in reference.registry.completed()]
        for snapshot_id in cuts:
            recorded.append((mode, len(reference.registry.snapshots[
                snapshot_id].recorded_messages())))
            cosim = pair(mode, interval, count, two_way)
            cosim.run()
            cosim.restore(snapshot_id)
            cosim.run()
            assert rows(cosim) == expected, snapshot_id

    check()
    assert any(count > 0 for mode, count in recorded
               if mode is ChannelMode.OPTIMISTIC)
