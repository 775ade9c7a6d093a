"""Ablation A5 — Chandy-Lamport marker overhead vs system size.

Every global checkpoint costs two marks per channel plus one local image
per subsystem (paper 2.2.3).  This bench grows a chain of subsystems and
measures marks, images and wall time per snapshot, while traffic is in
flight (the hard case the algorithm exists for).

The chain's names run against its data: stage 0, the source, is named
last, so the executor visits every receiver before its sender and a
message crosses one link per round.  A one-way conservative chain moves
in windows, so after ``count - 1`` rounds the whole stream is in flight
into the last stage — the first name, where the cut starts.  The run
stops at that round end (``max_rounds``; no idle round pumps the wire
first) and the cut records the stream as channel state.
"""

import time as _time

import pytest

from repro.bench import Table, format_bytes, format_count, format_seconds
from repro.bench.workloads import ring_of_pairs
from repro.distributed import SystemSpec, build

SIZES = [2, 4, 6, 8]
MESSAGES = 6

#: The table's deterministic columns per chain length — marks sent,
#: local images, recorded messages, storage bytes — the same on both
#: backends and under any hash seed; only the wall time may move.
PINNED = {2: (2, 2, 6, 15_710), 4: (6, 4, 6, 39_352),
          6: (10, 6, 6, 62_962), 8: (14, 8, 6, 86_758)}


def upstream_chain(count):
    """``ring_of_pairs_spec(count, MESSAGES)`` with its names reversed:
    stage ``index`` is ``ss{count - 1 - index}``."""
    spec = SystemSpec()
    for index in range(count):
        spec.add_subsystem(spec.add_node(f"n{index}"),
                           f"ss{count - 1 - index:02d}",
                           "repro.bench.workloads:make_ring_stage",
                           index=index, count=count,
                           messages_each=MESSAGES, period=1.0)
        if index:
            spec.connect(f"ss{count - index:02d}",
                         f"ss{count - 1 - index:02d}", nets=(f"w{index}",))
    return spec


def _run(subsystem_count):
    cosim = build(upstream_chain(subsystem_count))
    cosim.run(max_rounds=subsystem_count - 1)   # the stream is in flight
    assert cosim.transport.pending() == MESSAGES
    started = _time.perf_counter()
    snap_id = cosim.snapshot()
    elapsed = _time.perf_counter() - started
    snap = cosim.registry.snapshots[snap_id]
    assert snap.complete
    marks = sum(m.marks_sent for m in cosim._managers.values())
    storage = sum(ss.checkpoints.storage_bytes()
                  for ss in cosim.subsystems.values())
    cosim.run()                   # the system still finishes correctly
    tail = cosim.component(f"c{subsystem_count - 1}")
    assert tail.seen == MESSAGES
    return {
        "marks": marks,
        "channels": len(cosim.channels),
        "images": len(snap.cuts),
        "storage": storage,
        "wall": elapsed,
        "recorded": len(snap.recorded_messages()),
    }


@pytest.fixture(scope="module")
def ablation():
    return {count: _run(count) for count in SIZES}


def test_ablation_report(ablation):
    table = Table("A5 — Chandy-Lamport snapshot cost vs chain length",
                  ["subsystems", "channels", "marks sent", "local images",
                   "recorded msgs", "storage", "wall time"])
    for count, row in ablation.items():
        table.add(count, format_count(row["channels"]),
                  format_count(row["marks"]), format_count(row["images"]),
                  format_count(row["recorded"]),
                  format_bytes(row["storage"]),
                  format_seconds(row["wall"]))
    table.note("marks = 2 per channel (one per direction), as the "
               "algorithm prescribes")
    table.show()
    table.save("ablation_snapshot")


def test_deterministic_columns_are_pinned(ablation):
    """A drift in what a cut stores fails here, not silently in a table
    whose wall-time column keeps it out of the byte-compare."""
    assert {count: (row["marks"], row["images"], row["recorded"],
                    row["storage"])
            for count, row in ablation.items()} == PINNED


def test_two_marks_per_channel(ablation):
    for count, row in ablation.items():
        assert row["marks"] == 2 * row["channels"], count


def test_one_image_per_subsystem(ablation):
    for count, row in ablation.items():
        assert row["images"] == count


def test_a_chain_named_with_its_data_meets_nothing():
    """Why the names run against the data: named with it
    (``ring_of_pairs``), each stage is visited after its sender and takes
    every word in the round it was sent, so the same round end finds
    nothing in flight and the cut records nothing."""
    for count in SIZES:
        cosim = ring_of_pairs(count, MESSAGES)
        cosim.run(max_rounds=count - 1)
        assert cosim.transport.pending() == 0
        snap = cosim.registry.snapshots[cosim.snapshot()]
        assert snap.complete and snap.recorded_messages() == []


def test_cost_scales_linearly_not_worse(ablation):
    """Marks grow linearly with the chain; a quadratic blow-up would show
    as marks exceeding 2*(n-1)."""
    for count, row in ablation.items():
        assert row["channels"] == count - 1


def test_benchmark_snapshot_of_chain(benchmark):
    benchmark.pedantic(lambda: _run(6), rounds=1, iterations=1)
