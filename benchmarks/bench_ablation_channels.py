"""Ablation A1 — conservative vs optimistic channels.

"Pia allows for both possibilities through conservative and optimistic
channels" (paper 2.2.2).  The trade: conservative channels pay safe-time
traffic and stalls on every advance; optimistic channels run free but pay
checkpoints and, when communication does arrive unexpectedly, rollbacks.

The sweep varies how far the receiving subsystem can run ahead (its
private busy-work) for a fixed message stream, and reports stalls,
safe-time requests, rollbacks and events for both modes.

The pair declares a return path (the consumer's port is ``INOUT``; it
never drives it), so the conservative rows pay the per-message protocol
the trade is about.  On a strictly one-way stream there is nothing to
trade: the consumer's end cannot send, the producer runs in one window,
and conservative reads 0 stalls / 2 requests (DESIGN.md section 5,
"Directed safe time"; ``bench_ablation_lookahead.py`` has that row).
"""

import pytest

from repro.bench import Table, assert_order, format_count, streaming_pair
from repro.core.port import PortDirection
from repro.distributed import ChannelMode

MESSAGES = 30
PERIOD = 1.0
RUN_AHEAD = {"none": 0.0, "some": 10.0, "lots": 60.0}


def _run(mode, work):
    cosim = streaming_pair(
        MESSAGES, PERIOD, mode=mode, consumer_work=work,
        snapshot_interval=5.0 if mode is ChannelMode.OPTIMISTIC else None)
    consumer = cosim.component("consumer")
    consumer.port("in").direction = PortDirection.INOUT    # return path
    cosim.run()
    assert len(consumer.received) == MESSAGES
    return {
        "stalls": cosim.stalls(),
        "safe_time": cosim.safe_time_requests(),
        "rollbacks": len(cosim.recovery.rollbacks),
        "messages": cosim.transport.accounting.total_messages,
        "events": sum(ss.scheduler.dispatched
                      for ss in cosim.subsystems.values()),
        "received": list(consumer.received),
    }


@pytest.fixture(scope="module")
def ablation():
    rows = {}
    for label, work in RUN_AHEAD.items():
        for mode in (ChannelMode.CONSERVATIVE, ChannelMode.OPTIMISTIC):
            rows[(label, mode.value)] = _run(mode, work)
    return rows


def test_ablation_report(ablation):
    table = Table("A1 — conservative vs optimistic channels",
                  ["consumer run-ahead", "mode", "stalls", "safe-time reqs",
                   "rollbacks", "transport msgs", "events"])
    for (label, mode), row in ablation.items():
        table.add(label, mode, format_count(row["stalls"]),
                  format_count(row["safe_time"]),
                  format_count(row["rollbacks"]),
                  format_count(row["messages"]),
                  format_count(row["events"]))
    table.note("optimism trades safe-time chatter for rollbacks once the "
               "receiver can actually run ahead")
    table.note("the pair has a return path; strictly one-way, conservative "
               "reads 0 stalls / 2 requests and there is nothing to trade")
    table.show()
    table.save("ablation_channels")


def test_results_identical_across_modes(ablation):
    for label in RUN_AHEAD:
        conservative = ablation[(label, "conservative")]["received"]
        optimistic = ablation[(label, "optimistic")]["received"]
        assert conservative == optimistic, label


def test_conservative_pays_safe_time_never_rolls_back(ablation):
    for (label, mode), row in ablation.items():
        if mode == "conservative":
            assert row["rollbacks"] == 0
            assert row["safe_time"] > 0


def test_optimism_rolls_back_only_under_run_ahead(ablation):
    assert ablation[("none", "optimistic")]["rollbacks"] == 0
    assert ablation[("lots", "optimistic")]["rollbacks"] >= 1


def test_optimism_cuts_safe_time_traffic(ablation):
    for label in RUN_AHEAD:
        assert ablation[(label, "optimistic")]["safe_time"] <= \
            ablation[(label, "conservative")]["safe_time"]


def test_benchmark_both_modes(benchmark):
    def once():
        return (_run(ChannelMode.CONSERVATIVE, 10.0)["events"],
                _run(ChannelMode.OPTIMISTIC, 10.0)["events"])

    benchmark.pedantic(once, rounds=1, iterations=1)
