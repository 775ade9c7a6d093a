"""Table 1 — "Time and simulation overhead on several configurations of
the WubbleU example".

The paper loads a ~66 KB page (HTML + graphics) through the co-simulated
WubbleU system in five configurations and reports the wall-clock time of
each load:

    HotJava (no simulation)        0.54 s
    local  word passage            (unreadable in the surviving scan)
    local  packet passage         43.1  s
    remote word passage          604    s
    remote packet passage         80.3  s

This bench regenerates all five rows.  "Remote" means the cellular chip
(and everything behind it) on a second node across an Internet-class link;
the wall time of remote rows is measured CPU time plus the modelled
network time of every message that crossed the link (DESIGN.md,
substitutions).  The absolute numbers of the 1998 testbed are not
reproducible; the required *shape* is asserted:

* the un-instrumented reference is far below every simulation;
* word passage is far more expensive than packet passage when remote
  (the paper's 604 vs 80.3);
* the remote penalty at word level dwarfs the local run;
* remote packet passage stays within an interactive factor of the local
  simulation — the paper's point that detail reduction makes remote
  co-simulation usable.

Both remote rows run over each channel mode.  The conservative column
pays the safe-time protocol (section 2.2.2.1) on top of every word; the
optimistic column (section 2.2.2.2) sends one message per word and is the
paper's row.  The shape assertions above hold on the conservative column;
the optimistic one must model the paper's 604 s within 1.5x and reach the
same virtual completion.
"""

import pytest

from repro.apps import WubbleUConfig, fetch_like_hotjava, page_load
from repro.bench import (
    PAPER_TABLE1,
    Table,
    assert_factor,
    assert_order,
    format_count,
    format_seconds,
)
from repro.distributed import ChannelMode
from repro.transport import INTERNET

#: The channel modes of the remote rows; local rows have no channel.
MODES = (ChannelMode.CONSERVATIVE, ChannelMode.OPTIMISTIC)


def _key(location, level, mode=ChannelMode.CONSERVATIVE):
    key = f"{location} {level} passage"
    return key if mode is ChannelMode.CONSERVATIVE else f"{key}, optimistic"


def _run_all():
    results = {}
    reference = fetch_like_hotjava()
    results["HotJava"] = {
        "time": reference.simulation_time,
        "messages": 0,
        "events": 0,
    }
    for location, remote in (("local", False), ("remote", True)):
        for level in ("word", "packet"):
            for mode in MODES if remote else MODES[:1]:
                outcome = page_load(level, remote=remote, network=INTERNET,
                                    mode=mode,
                                    config=WubbleUConfig(level=level))
                results[_key(location, level, mode)] = {
                    "time": outcome.simulation_time,
                    "messages": outcome.messages,
                    "events": outcome.events,
                    "virtual": outcome.virtual_time,
                    "bytes": outcome.bytes_loaded,
                    "mode": mode.value if remote else "n/a",
                }
    return results


@pytest.fixture(scope="module")
def table1():
    return _run_all()


def test_table1_report(table1):
    table = Table(
        "Table 1 — WubbleU page load (66 KB), measured vs paper",
        ["Location", "Detail level", "channel", "simulation time", "paper",
         "inter-node msgs", "events"])
    order = ["HotJava", "local word passage", "local packet passage"] + [
        _key("remote", level, mode)
        for level in ("word", "packet") for mode in MODES]
    for key in order:
        row = table1[key]
        location, __, level = key.partition(",")[0].partition(" ")
        table.add(location if level else "n/a",
                  level or "HotJava",
                  row.get("mode", "n/a"),
                  format_seconds(row["time"]),
                  format_seconds(PAPER_TABLE1.get(key.partition(",")[0])),
                  format_count(row["messages"]),
                  format_count(row["events"]))
    table.note("remote rows: measured CPU + modelled network wall time "
               "(internet preset: 35 ms latency, 128 kB/s)")
    table.note("paper local-word entry is unreadable in the surviving scan")
    table.note("optimistic rows: no safe-time protocol, one message per "
               "transfer — the paper's remote rows")
    table.show()
    table.save("table1_wubbleu")


def test_shape_reference_below_everything(table1):
    """The un-instrumented load is cheapest.  At packet level our
    simulator adds so little overhead that wall-clock noise can make the
    two comparable — itself a result worth noting — so the local-packet
    comparison allows a small tolerance while the others are strict."""
    times = {key: row["time"] for key, row in table1.items()}
    assert_order(times, "HotJava", "local word passage")
    assert_order(times, "HotJava", "remote packet passage")
    assert_order(times, "HotJava", "remote word passage")
    assert times["HotJava"] < 5 * times["local packet passage"]


def test_shape_remote_word_dwarfs_remote_packet(table1):
    """The paper's 604 s vs 80.3 s (7.5x); we require at least 5x."""
    times = {key: row["time"] for key, row in table1.items()}
    assert_factor(times, "remote packet passage", "remote word passage", 5.0)


def test_shape_remote_word_dwarfs_local_word(table1):
    times = {key: row["time"] for key, row in table1.items()}
    assert_factor(times, "local word passage", "remote word passage", 10.0)


def test_shape_remote_packet_is_interactive(table1):
    """Packet passage keeps the remote run "fast enough to allow the
    designer to play with the simulated hardware" — within ~100x of the
    local simulation rather than the word level's thousands."""
    times = {key: row["time"] for key, row in table1.items()}
    local = max(times["local packet passage"], 1e-3)
    assert times["remote packet passage"] / local < 1000.0
    assert times["remote word passage"] / local > \
        10 * (times["remote packet passage"] / local)


def test_word_messages_track_word_count(table1):
    """Word passage ships one message per 4-byte word (plus headers and
    safe-time traffic): tens of thousands for 66 KB."""
    assert table1["remote word passage"]["messages"] > 15_000
    assert table1["remote packet passage"]["messages"] < 1_000


def test_same_virtual_behaviour_everywhere(table1):
    """Distribution must not change the simulated system's behaviour:
    local and remote runs of the same detail level land on the identical
    virtual completion time.  Across levels the codecs' timing models
    differ slightly (that is the fidelity being traded), but only by a
    fraction of a percent here."""
    for level in ("word", "packet"):
        assert table1[f"local {level} passage"]["virtual"] == \
            table1[f"remote {level} passage"]["virtual"]
    word = table1["local word passage"]["virtual"]
    packet = table1["local packet passage"]["virtual"]
    assert abs(word - packet) / packet < 0.01


def test_optimistic_remote_word_sends_a_message_per_word(table1):
    """Without the safe-time protocol, a word crossing is one message."""
    row = table1[_key("remote", "word", ChannelMode.OPTIMISTIC)]
    words = row["bytes"] / WubbleUConfig().bus_word_width
    assert row["messages"] <= 1.1 * words


def test_optimistic_remote_word_models_the_papers_row(table1):
    """The paper's 604 s within 1.5x (595.6 s of it is modelled network
    time, so the host's CPU barely moves it)."""
    paper = PAPER_TABLE1["remote word passage"]
    time = table1[_key("remote", "word", ChannelMode.OPTIMISTIC)]["time"]
    assert paper / 1.5 <= time <= paper * 1.5


def test_same_virtual_completion_across_channel_modes(table1):
    for level in ("word", "packet"):
        assert {table1[_key("remote", level, mode)]["virtual"]
                for mode in MODES} == {table1[_key("local", level)]["virtual"]}


@pytest.fixture(scope="module")
def table1_batching():
    """Remote packet passage, batching off vs on — the ISSUE 3 workload.

    ``simulation_time`` here is CPU plus *modelled* network wall time (one
    latency charge per wire frame at the Internet preset's 35 ms), so the
    batching win on it is deterministic, unlike raw wall clock."""
    return tuple(page_load("packet", remote=True, network=INTERNET,
                           config=WubbleUConfig(level="packet"),
                           batching=batching)
                 for batching in (False, True))


def test_batching_halves_remote_frames(table1_batching):
    """The acceptance bar: >= 2x fewer wire frames with identical final
    simulation state (virtual time, event count, payload delivered)."""
    base, batched = table1_batching
    assert batched.frames * 2 <= base.frames
    assert batched.virtual_time == base.virtual_time
    assert batched.events == base.events
    assert batched.bytes_loaded == base.bytes_loaded


def test_batching_lowers_modelled_simulation_time(table1_batching):
    """Fewer frames means fewer 35 ms latency charges: the modelled
    network component — which dominates the remote rows — must drop
    nearly in half.  (The bandwidth term is charged per byte and does not
    shrink, so the delay ratio trails the frame ratio slightly.)"""
    base, batched = table1_batching
    assert batched.network_delay < 0.55 * base.network_delay
    assert batched.simulation_time < base.simulation_time


def test_batching_comparison_report(table1_batching):
    base, batched = table1_batching
    table = Table("Table 1 follow-up — remote packet passage, "
                  "batched fast path",
                  ["config", "frames", "msgs", "bytes",
                   "network delay", "simulation time"])
    for label, run in (("batching off", base), ("batching on", batched)):
        table.add(label, format_count(run.frames),
                  format_count(run.messages), format_count(run.wire_bytes),
                  format_seconds(run.network_delay),
                  format_seconds(run.simulation_time))
    table.note(f"frame ratio: {base.frames / batched.frames:.2f}x; "
               "virtual completion time and event counts are identical")
    table.show()
    table.save("table1_batching")


def test_benchmark_local_packet(benchmark):
    """pytest-benchmark hook: the configuration a designer iterates on."""
    config = WubbleUConfig(level="packet")
    benchmark.pedantic(
        lambda: page_load("packet", remote=False, config=config),
        rounds=1, iterations=1)
