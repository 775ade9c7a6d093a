"""Ablation A5 — Chandy-Lamport marker overhead vs system size.

Every global checkpoint costs two marks per channel plus one local image
per subsystem (paper 2.2.3).  This bench grows a chain of subsystems and
measures marks, images and wall time per snapshot, while traffic is in
flight (the hard case the algorithm exists for).
"""

import time as _time

import pytest

from repro.bench import Table, format_bytes, format_count, format_seconds
from repro.bench.workloads import ring_of_pairs

SIZES = [2, 4, 6, 8]

#: The table's deterministic columns per chain length — marks sent,
#: local images, recorded messages, storage bytes — the same on both
#: backends and under any hash seed; only the wall time may move.
PINNED = {2: (2, 2, 0, 15_891), 4: (6, 4, 0, 39_567),
          6: (10, 6, 0, 63_057), 8: (14, 8, 0, 86_499)}


def _run(subsystem_count):
    cosim = ring_of_pairs(subsystem_count, messages_each=6)
    cosim.run(until=3.0)          # leave work (and messages) outstanding
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
    assert tail.seen == 6
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


def test_cost_scales_linearly_not_worse(ablation):
    """Marks grow linearly with the chain; a quadratic blow-up would show
    as marks exceeding 2*(n-1)."""
    for count, row in ablation.items():
        assert row["channels"] == count - 1


def test_benchmark_snapshot_of_chain(benchmark):
    benchmark.pedantic(lambda: _run(6), rounds=1, iterations=1)
