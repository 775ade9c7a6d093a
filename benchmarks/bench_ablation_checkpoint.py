"""Ablation A2 — checkpoint interval vs rollback cost.

Optimistic channels "require each subsystem to occasionally save state so
that it can fully recover if a consistency error occurs" (paper 2.2.2.2),
and "the only impact could be more expensive restores if optimistic
channels are poorly placed".  The knob is how often to snapshot: frequent
snapshots cost marks and storage, sparse snapshots make every rollback
rewind further.

The sweep holds the workload fixed (a consumer running far ahead of a
producer) and varies ``snapshot_interval``.  The pair declares a return
path (an ``INOUT`` consumer port, never driven): the conservative window
that follows a rollback then proceeds message by message, which is where
the cadence shows; a strictly one-way stream crosses it in one window.
"""

import pytest

from repro.bench import Table, format_bytes, format_count, streaming_pair
from repro.core.port import PortDirection
from repro.distributed import ChannelMode

INTERVALS = [2.0, 5.0, 10.0, 25.0]
MESSAGES = 25


def _run(interval):
    cosim = streaming_pair(MESSAGES, 1.0, mode=ChannelMode.OPTIMISTIC,
                           consumer_work=80.0, snapshot_interval=interval)
    consumer = cosim.component("consumer")
    consumer.port("in").direction = PortDirection.INOUT    # return path
    cosim.run()
    assert len(consumer.received) == MESSAGES
    report = cosim.report()
    return {
        "snapshots": len(cosim.registry.snapshots),
        "storage": sum(ss.checkpoints.storage_bytes()
                       for ss in cosim.subsystems.values()),
        "rollbacks": len(cosim.recovery.rollbacks),
        # The telemetry counter counts every dispatch, abandoned ones
        # too; a scheduler's own count comes back with each image.
        "events": report.counter("scheduler.dispatched"),
        "committed": sum(row["dispatched"] for row in report.subsystems),
        "channels": [(row["name"], row["forwarded"], row["injected"])
                     for row in report.channels],
        "received": list(consumer.received),
    }


@pytest.fixture(scope="module")
def ablation():
    return {interval: _run(interval) for interval in INTERVALS}


def test_ablation_report(ablation):
    table = Table("A2 — snapshot interval vs recovery cost (optimistic)",
                  ["interval (virt s)", "snapshots", "storage",
                   "rollbacks", "events (incl. re-execution)"])
    for interval, row in ablation.items():
        table.add(f"{interval:g}", format_count(row["snapshots"]),
                  format_bytes(row["storage"]),
                  format_count(row["rollbacks"]),
                  format_count(row["events"]))
    table.note("sparser snapshots => fewer images but longer re-execution "
               "after each straggler")
    table.show()
    table.save("ablation_checkpoint")


def test_results_independent_of_interval(ablation):
    results = {tuple(row["received"]) for row in ablation.values()}
    assert len(results) == 1


def test_channel_rows_independent_of_interval(ablation):
    """Each end's ledgers come back with the images, so every cadence
    reports the one stream it delivered."""
    rows = {tuple(row["channels"]) for row in ablation.values()}
    assert len(rows) == 1
    assert sorted(forwarded for __, forwarded, ___ in rows.pop()) == \
        [0, MESSAGES]


def test_every_interval_recovers(ablation):
    for interval, row in ablation.items():
        assert row["rollbacks"] >= 1, interval
        assert row["snapshots"] >= 1, interval


def test_denser_snapshots_store_more(ablation):
    assert ablation[2.0]["snapshots"] >= ablation[25.0]["snapshots"]
    assert ablation[2.0]["storage"] >= ablation[25.0]["storage"]


def test_rollbacks_reexecute_events(ablation):
    """Re-execution shows up as extra dispatched events: every run
    dispatches more than it commits, and the run with the most rollbacks
    dispatches more than the one with the fewest."""
    for interval, row in ablation.items():
        assert row["events"] > row["committed"], interval
    by_rollbacks = sorted(ablation.values(), key=lambda r: r["rollbacks"])
    assert by_rollbacks[0]["events"] < by_rollbacks[-1]["events"]


def test_benchmark_mid_interval(benchmark):
    benchmark.pedantic(lambda: _run(5.0), rounds=1, iterations=1)
