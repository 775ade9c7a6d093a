"""Migration and failover chaos: a scheduled crash under
``failure_policy="migrate"`` and an explicit live migration must both
finish with simulation state bit-identical to a fault-free same-seed
run — across both transports, batching on and off.  Also unit-tests the
portable-image plumbing those moves ride on."""

import json
import pickle

import pytest

from repro.bench.workloads import compute_star_multiprocess
from repro.core import (
    Advance,
    PortDirection,
    ProcessComponent,
    Receive,
    Send,
    Simulator,
)
from repro.core.checkpoint import capture
from repro.core.errors import ConfigurationError, MigrationError
from repro.distributed.migration import (
    NodeArchive,
    PortableImage,
    decode_image,
    encode_image,
    resent_counts,
)
from repro.faults import FaultPlan, NodeCrash
from repro.observability import (
    TraceKind,
    chrome_trace,
    validate_chrome_trace,
)
from repro.observability.export import trace_records
from repro.observability.flight import ENV_DIR
from repro.observability.spans import causal_chains
from repro.transport.message import Message, MessageKind

#: Full deployment matrix the bit-identity guarantee is claimed over.
MATRIX = [("tcp", False), ("tcp", True), ("shm", False), ("shm", True)]


def star(**kwargs):
    return compute_star_multiprocess(2, 6, words=50,
                                     failure_policy="migrate", **kwargs)


def progress_rows(report):
    return sorted((row["name"], row["time"], row["dispatched"])
                  for row in report.subsystems)


def flight_dumps(directory):
    """``{tag: (header, records)}`` for every black-box dump under
    ``directory`` — each must read back through the trace tooling."""
    dumps = {}
    for path in sorted(directory.glob("pia-flight-*.jsonl")):
        header, *lines = [json.loads(line) for line
                          in path.read_text().splitlines()]
        records = trace_records(lines)
        assert validate_chrome_trace(chrome_trace(records)) == []
        dumps[header["flight"]] = (header, records)
    return dumps


# ----------------------------------------------------------------------
# crash -> supervised failover
# ----------------------------------------------------------------------

class TestFailoverBitIdentity:
    @pytest.mark.parametrize("transport,batching", MATRIX)
    def test_crash_failover_matches_fault_free_run(self, transport,
                                                   batching):
        """Kill a worker mid-run; the supervisor must elect a fresh pool
        worker, restore from the last global snapshot and finish with
        the exact per-subsystem (time, dispatched) rows of an unfailed
        same-seed run."""
        ref = star(transport=transport, batching=batching)
        dispatched_ref = ref.run(timeout=120.0)
        rows_ref = progress_rows(ref.report())

        crash = star(transport=transport, batching=batching,
                     fault_plan=FaultPlan(
                         seed=3, crashes=[NodeCrash("n-w0", at_time=2.0)]))
        dispatched_crash = crash.run(timeout=120.0)
        report = crash.report()

        assert progress_rows(report) == rows_ref
        assert dispatched_crash == dispatched_ref
        assert [m["kind"] for m in report.migrations] == ["failover"]
        record = report.migrations[0]
        assert record["node"] == "n-w0"
        assert record["reason"] == "scheduled-crash"
        assert record["epoch"] >= 1
        assert record["snapshot_bytes"] > 0

    def test_failover_replaces_the_worker_process(self):
        """The placement log must show the crashed node losing its
        worker and being adopted by a different process."""
        crash = star(fault_plan=FaultPlan(
            seed=3, crashes=[NodeCrash("n-w0", at_time=2.0)]))
        crash.run(timeout=120.0)
        events = {}
        for entry in crash.placement_log:
            events.setdefault((entry["node"], entry["event"]),
                              entry["worker"])
        assert ("n-w0", "lost") in events
        assert ("n-w0", "adopted") in events
        assert events[("n-w0", "adopted")] != events[("n-w0", "assigned")]
        # Survivors keep their original placement.
        assert ("n-hub", "lost") not in events

    def test_failover_leaves_the_black_boxes_behind(self, tmp_path,
                                                    monkeypatch):
        """The coordinator dumps its ring when it decides to fail over,
        and every surviving worker dumps its own just before the
        rollback wipes the world it describes.  (Unbatched, so the
        workers stall and have something in their rings.)"""
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        crash = star(batching=False, fault_plan=FaultPlan(
            seed=3, crashes=[NodeCrash("n-w0", at_time=2.0)]))
        crash.run(timeout=120.0)
        dumps = flight_dumps(tmp_path)
        header, records = dumps["coordinator"]
        assert header["reason"] == "failover: scheduled-crash"
        assert [(r["kind"], r["subject"], r["reason"]) for r in records] \
            == [(TraceKind.MIGRATION, "n-w0", "scheduled-crash")]
        header, records = dumps["n-hub"]
        assert header["reason"] == "restore"
        assert records[-1]["kind"] == TraceKind.CHECKPOINT_RESTORE
        assert TraceKind.STALL in {r["kind"] for r in records}
        assert "n-w0" not in dumps      # killed: it never got to dump

    def test_detector_suspicions_reported(self):
        """The heartbeat detector's verdicts surface as a report gauge
        whether or not anything died."""
        quiet = star()
        quiet.run(timeout=120.0)
        assert quiet.report().gauges.get("mp.suspicions") == 0


# ----------------------------------------------------------------------
# explicit live migration
# ----------------------------------------------------------------------

class TestLiveMigration:
    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_migrate_mid_run_is_lossless(self, transport, tmp_path,
                                         monkeypatch):
        """migrate_at() must re-splice every channel without dropping or
        duplicating in-flight messages: progress rows stay bit-identical
        and the causal trace graph has no orphan receives (a dropped or
        doubled message breaks a span chain).  The coordinator's own
        trace — the migration decision — reaches the report, and the
        move leaves its black boxes behind."""
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        ref = star(transport=transport)
        ref.run(timeout=120.0)
        rows_ref = progress_rows(ref.report())

        moved = star(transport=transport)
        moved.migrate_at("n-w1", 2.0)
        moved.run(timeout=120.0)
        report = moved.report()

        assert progress_rows(report) == rows_ref
        assert [m["kind"] for m in report.migrations] == ["migrate"]
        assert report.migrations[0]["reason"] == "requested"
        chains = causal_chains(report.trace_records)
        assert not chains["orphan_receives"], chains["orphan_receives"][:3]
        assert not chains["broken_parents"], chains["broken_parents"][:3]
        placements = {}
        for entry in moved.placement_log:
            placements.setdefault((entry["node"], entry["event"]),
                                  entry["worker"])
        assert ("n-w1", "released") in placements
        assert ("n-w1", "adopted") in placements
        # A migration must land on a genuinely different process.
        assert placements[("n-w1", "adopted")] != \
            placements[("n-w1", "assigned")]
        # One coordinator MIGRATION record per move, and nothing else
        # distinguishes the projection from the unmoved run's.
        assert report.trace_counts[TraceKind.MIGRATION] \
            == len(report.migrations)
        assert ref.report().trace_counts.get(TraceKind.MIGRATION) is None
        decided = [r for r in report.trace_records
                   if r["kind"] == TraceKind.MIGRATION]
        assert [(r["subject"], r["reason"], r["epoch"]) for r in decided] \
            == [("n-w1", "requested", 1)]
        timeline = chrome_trace(report)
        assert validate_chrome_trace(timeline) == []
        assert [e["args"]["reason"] for e in timeline["traceEvents"]
                if e.get("name") == TraceKind.MIGRATION] == ["requested"]
        dumps = flight_dumps(tmp_path)
        header, records = dumps["coordinator"]
        assert header["reason"] == "migrate"
        assert records == [{k: v for k, v in r.items() if k != "node"}
                           for r in decided]

    def test_migrate_requires_migrate_policy(self):
        plain = compute_star_multiprocess(2, 3, words=20)
        with pytest.raises(ConfigurationError):
            plain.migrate("n-w0")

    def test_migrate_unknown_node_rejected(self):
        cosim = star()
        with pytest.raises(ConfigurationError):
            cosim.migrate("n-missing")


# ----------------------------------------------------------------------
# portable checkpoint images (unit level)
# ----------------------------------------------------------------------

class _Ticker(ProcessComponent):
    def __init__(self, name, count=10):
        super().__init__(name)
        self.count = count
        self.add_port("out", PortDirection.OUT)

    def run(self):
        for index in range(self.count):
            yield Advance(1.0)
            yield Send("out", index)


class _Accumulator(ProcessComponent):
    def __init__(self, name):
        super().__init__(name)
        self.seen = []
        self.add_port("in", PortDirection.IN)

    def run(self):
        while True:
            t, value = yield Receive("in")
            self.seen.append((t, value))


def build_sim():
    sim = Simulator()
    ticker = sim.add(_Ticker("ticker"))
    acc = sim.add(_Accumulator("acc"))
    sim.wire("n", ticker.port("out"), acc.port("in"))
    return sim, acc


class TestPortableImages:
    def test_pickle_round_trip_resumes_identically(self):
        """encode -> pickle -> decode into a *freshly built* subsystem
        (the adopting worker's situation) must resume to the same final
        state as the original."""
        sim, acc = build_sim()
        sim.run(until=3.0)
        portable = encode_image(sim.subsystem,
                                capture(sim.subsystem, 1, "cut"))
        clone = pickle.loads(pickle.dumps(portable))
        assert clone.storage_bytes() > 0
        assert clone.time == 3.0

        fresh, fresh_acc = build_sim()
        decode_image(fresh.subsystem, clone)
        fresh.run()
        sim.run()
        assert fresh_acc.seen == acc.seen
        assert fresh.now == sim.now

    def test_image_for_wrong_subsystem_rejected(self):
        sim, __ = build_sim()
        sim.run(until=2.0)
        portable = encode_image(sim.subsystem,
                                capture(sim.subsystem, 1, "cut"))
        portable.subsystem = "someone-else"
        with pytest.raises(MigrationError):
            decode_image(sim.subsystem, portable)

    def test_resent_counts_key_by_channel_and_destination(self):
        """Recorded in-flight messages pre-seed the ``forwarded`` ledger
        of the endpoint that will re-deliver them: counts must be keyed
        by (channel, destination node)."""
        def signal(channel, dst):
            return Message(kind=MessageKind.SIGNAL, src="n-a", dst=dst,
                           channel=channel, time=1.0, payload="x")

        image_a = PortableImage(subsystem="a", checkpoint_id=1, label=None,
                                time=1.0, started=True, dispatched=0,
                                stalls=0,
                                recorded={"ch-1": [signal("ch-1", "n-b"),
                                                   signal("ch-1", "n-b")]})
        image_b = PortableImage(subsystem="b", checkpoint_id=1, label=None,
                                time=1.0, started=True, dispatched=0,
                                stalls=0,
                                recorded={"ch-2": [signal("ch-2", "n-c")]})
        archives = [NodeArchive(node="n-b", snapshot_id="s",
                                images={"a": image_a}),
                    NodeArchive(node="n-c", snapshot_id="s",
                                images={"b": image_b})]
        assert resent_counts(archives) == {("ch-1", "n-b"): 2,
                                           ("ch-2", "n-c"): 1}
