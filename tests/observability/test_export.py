"""Timeline export: Chrome-trace shape, views, validation, attribution."""

import json

import pytest

from repro.observability import (
    RunReport,
    TraceKind,
    chrome_trace,
    stall_attribution,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observability.export import subject_nodes, trace_records
from repro.observability.trace import TraceRecord

NODES = {"hub": "n-hub", "w0": "n-w0"}


def span(name):
    """``"origin:ordinal"`` as the ``(origin, epoch, ordinal)`` a record
    carries."""
    origin, ordinal = name.rsplit(":", 1)
    return (origin, 0, int(ordinal))


def dispatch(subject, time, cause=None, wall=0.0, before=None):
    rec = {"kind": TraceKind.DISPATCH, "seq": 1, "time": time,
           "subject": subject, "wall": wall}
    if cause is not None:
        rec["cause"] = span(cause)
    if before is not None:
        rec["before"] = before
    return rec


def send(subject, time, name, wall=0.0):
    return {"kind": TraceKind.MSG_SEND, "seq": 2, "time": time,
            "subject": subject, "span": span(name), "message_kind": "signal",
            "wall": wall}


def recv(subject, time, name, wall=0.0):
    return {"kind": TraceKind.MSG_RECV, "seq": 3, "time": time,
            "subject": subject, "span": span(name), "message_kind": "signal",
            "wall": wall}


class TestTraceRecordsNormalisation:
    def test_accepts_record_objects_and_keeps_wall(self):
        records = trace_records(
            [TraceRecord(1, TraceKind.DISPATCH, 0.5, "ss", wall=9.0)])
        assert records[0]["subject"] == "ss"
        assert records[0]["wall"] == 9.0

    def test_prefers_report_trace_records(self):
        report = RunReport("t")
        report.trace_records = [dispatch("ss", 1.0)]
        assert trace_records(report) == [dispatch("ss", 1.0)]

    def test_subject_nodes_from_report_rows(self):
        report = RunReport("t")
        report.subsystems = [{"name": "hub", "node": "n-hub"},
                             {"name": "solo", "node": "-"}]
        assert subject_nodes(report) == {"hub": "n-hub"}


class TestChromeTrace:
    def test_nodes_become_processes_subsystems_threads(self):
        doc = chrome_trace([dispatch("hub", 1.0), dispatch("w0", 2.0)],
                           nodes=NODES)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "n-hub") in names
        assert ("process_name", "n-w0") in names
        assert ("thread_name", "hub") in names

    def test_virtual_view_scales_to_microseconds(self):
        doc = chrome_trace([dispatch("hub", 1.5)], nodes=NODES)
        event = [e for e in doc["traceEvents"] if e["ph"] == "i"][0]
        assert event["ts"] == pytest.approx(1.5e6)

    def test_wall_view_zero_bases_wall_clocks(self):
        doc = chrome_trace([dispatch("hub", 1.0, wall=100.0),
                            dispatch("hub", 2.0, wall=100.5)],
                           view="wall", nodes=NODES)
        stamps = sorted(e["ts"] for e in doc["traceEvents"]
                        if e["ph"] == "i")
        assert stamps == [pytest.approx(0.0), pytest.approx(0.5e6)]

    def test_send_recv_pair_produces_flow_arrow(self):
        doc = chrome_trace([send("n-hub->n-w0", 1.0, "n-hub:1"),
                            recv("n-hub->n-w0", 1.5, "n-hub:1")])
        flows = [e for e in doc["traceEvents"] if e["ph"] in "sf"]
        assert [e["ph"] for e in flows] == ["s", "f"]
        assert flows[0]["id"] == flows[1]["id"] == "n-hub:1"
        # The send sits on the src node's process, the recv on the dst's.
        pids = {e["ph"]: e["pid"] for e in flows}
        assert pids["s"] != pids["f"]

    def test_flow_id_renders_the_span_and_its_epoch(self):
        sent = dict(send("n-hub->n-w0", 1.0, "n-hub:1"),
                    span=("n-hub", 2, 1))
        got = dict(recv("n-hub->n-w0", 1.5, "n-hub:1"),
                   span=["n-hub", 2, 1])      # as a JSON round-trip leaves it
        doc = chrome_trace([sent, got])
        assert [e["id"] for e in doc["traceEvents"] if e["ph"] in "sf"] \
            == ["n-hub@e2:1", "n-hub@e2:1"]

    def test_stall_becomes_duration_slice_in_virtual_view(self):
        record = {"kind": TraceKind.STALL, "seq": 4, "time": 2.0,
                  "subject": "hub", "next_event": 5.0, "wall": 0.0}
        doc = chrome_trace([record], nodes=NODES)
        slice_ = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert slice_["dur"] == pytest.approx(3.0e6)

    def test_invalid_view_rejected(self):
        with pytest.raises(ValueError):
            chrome_trace([], view="sideways")

    def test_exported_document_validates(self):
        doc = chrome_trace([send("n-hub->n-w0", 1.0, "n-hub:1"),
                            recv("n-hub->n-w0", 1.5, "n-hub:1"),
                            dispatch("w0", 1.5, cause="n-hub:1")],
                           nodes=NODES)
        assert validate_chrome_trace(doc) == []

    def test_write_round_trips_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        document = write_chrome_trace(str(path),
                                      [dispatch("hub", 1.0)], nodes=NODES)
        assert json.loads(path.read_text()) == document


class TestValidate:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_flags_bad_phase_and_missing_fields(self):
        doc = {"traceEvents": [
            {"ph": "Z", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "i", "tid": 1, "ts": 0},
            {"ph": "X", "pid": 1, "tid": 1, "ts": 0},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("bad ph" in p for p in problems)
        assert any("missing integer pid" in p for p in problems)
        assert any("needs dur" in p for p in problems)

    def test_flags_orphaned_flow_finish(self):
        doc = {"traceEvents": [
            {"ph": "f", "bp": "e", "id": "ghost", "pid": 1, "tid": 1,
             "ts": 0.0},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("orphaned causal link" in p for p in problems)

    def test_clean_document_passes(self):
        doc = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "n"}},
            {"ph": "s", "id": "x", "pid": 1, "tid": 1, "ts": 0.0},
            {"ph": "f", "bp": "e", "id": "x", "pid": 2, "tid": 1,
             "ts": 1.0},
        ]}
        assert validate_chrome_trace(doc) == []


class TestStallAttribution:
    def test_remote_caused_gap_charged_to_peer_origin(self):
        rows = stall_attribution([
            dispatch("hub", 4.0, cause="n-w0:1", before=1.0),
        ], nodes=NODES)
        assert rows == [{"subsystem": "hub", "node": "n-hub",
                         "peer_node": "n-w0", "waits": 1, "waited": 3.0,
                         "critical": True}]

    def test_local_and_own_node_causes_not_charged(self):
        rows = stall_attribution([
            dispatch("hub", 1.0),                          # uncaused
            dispatch("hub", 9.0, cause="n-hub:1",   # own node
                     before=4.0),
        ], nodes=NODES)
        assert rows == []

    def test_critical_flag_marks_worst_peer_per_subsystem(self):
        rows = stall_attribution([
            dispatch("hub", 1.0, cause="n-w0:1", before=0.0),
            dispatch("hub", 6.0, cause="n-w1:1", before=1.0),
        ], nodes=NODES)
        by_peer = {row["peer_node"]: row for row in rows}
        assert by_peer["n-w1"]["critical"] is True
        assert by_peer["n-w0"]["critical"] is False

    def test_same_instant_arrivals_share_blame_order_invariantly(self):
        forward = [
            dispatch("hub", 4.0, cause="n-w1:1", before=1.0),
            dispatch("hub", 4.0, cause="n-w0:1", before=1.0),
        ]
        swapped = forward[::-1]
        expected = [{"subsystem": "hub", "node": "n-hub",
                     "peer_node": "n-w0", "waits": 1, "waited": 3.0,
                     "critical": True},
                    {"subsystem": "hub", "node": "n-hub",
                     "peer_node": "n-w1", "waits": 1, "waited": 3.0,
                     "critical": True}]
        assert stall_attribution(forward, nodes=NODES) == expected
        assert stall_attribution(swapped, nodes=NODES) == expected

    def test_inherited_cause_at_later_instant_not_charged(self):
        # The span's message was stamped 1.0; the dispatch at 2.5 is
        # follow-on work the subsystem scheduled for itself, not a stall.
        rows = stall_attribution([
            send("n-w0->n-hub", 1.0, "n-w0:1"),
            dispatch("hub", 1.0, cause="n-w0:1", before=0.0),
            dispatch("hub", 2.5, cause="n-w0:1", before=1.0),
        ], nodes=NODES)
        assert rows == [{"subsystem": "hub", "node": "n-hub",
                         "peer_node": "n-w0", "waits": 1, "waited": 1.0,
                         "critical": True}]

    def test_a_json_round_tripped_trail_attributes_the_same(self):
        # A flight dump's lines hold each span as a list.
        trail = [
            send("n-w0->n-hub", 1.0, "n-w0:1"),
            dispatch("hub", 1.0, cause="n-w0:1", before=0.0),
            dispatch("hub", 2.5, cause="n-w0:1", before=1.0),
            dispatch("hub", 4.0, cause="n-w1:1", before=2.5),
        ]
        assert stall_attribution(json.loads(json.dumps(trail)),
                                 nodes=NODES) \
            == stall_attribution(trail, nodes=NODES)

    def test_first_dispatch_gap_measured_from_time_zero(self):
        rows = stall_attribution(
            [dispatch("hub", 2.0, cause="n-w0:1", before=0.0)],
            nodes=NODES)
        assert rows[0]["waited"] == 2.0

    def test_unknown_subsystem_still_attributed(self):
        rows = stall_attribution(
            [dispatch("mystery", 1.0, cause="n-w0:1", before=0.0)],
            nodes={})
        assert rows[0]["node"] == "-"
        assert rows[0]["peer_node"] == "n-w0"


def full_trail_attribution(records, nodes):
    """Stall attribution as it read a trail holding *every* dispatch:
    one group per run of same-instant dispatches of a subsystem in trail
    order, its gap measured from the highest instant dispatched before
    it.  Returns ``{(subsystem, peer_node): [waits, waited]}``."""
    stamps = {}
    for rec in records:
        if rec["kind"] == TraceKind.MSG_SEND:
            stamps.setdefault(rec["span"], rec["time"])
    last, groups, charged = {}, {}, {}

    def charge(subject, instant, origins):
        gap = instant - last.get(subject, 0.0)
        last[subject] = max(last.get(subject, 0.0), instant)
        for origin in origins if gap > 0.0 else ():
            row = charged.setdefault((subject, origin), [0, 0.0])
            row[0] += 1
            row[1] += gap

    for rec in records:
        if rec["kind"] != TraceKind.DISPATCH:
            continue
        subject, time = rec["subject"], rec["time"]
        group = groups.get(subject)
        if group is not None and group[0] != time:
            charge(subject, *group)
            group = None
        if group is None:
            group = groups[subject] = (time, set())
        cause = rec.get("cause")
        if cause is None or stamps.get(cause, time) != time:
            continue
        if cause[0] != nodes.get(subject):
            group[1].add(cause[0])
    for subject, group in groups.items():
        charge(subject, *group)
    return charged


class TestCausedRecordsOnly:
    """A run files ``DISPATCH`` only for a caused dispatch, stamped with
    ``before`` (the subsystem's highest earlier dispatch instant).  On
    each full trail below, attribution over its caused records alone must
    equal what the whole trail gave when every dispatch was recorded."""

    def attribute(self, full):
        short = [rec for rec in full
                 if rec["kind"] != TraceKind.DISPATCH or "cause" in rec]
        assert len(short) < len(full)
        rows = stall_attribution(short, nodes=NODES)
        assert {(row["subsystem"], row["peer_node"]):
                [row["waits"], row["waited"]] for row in rows} \
            == full_trail_attribution(full, NODES)
        return {row["peer_node"]: (row["waits"], row["waited"])
                for row in rows}

    def test_uncaused_dispatches_between_caused_ones(self):
        assert self.attribute([
            dispatch("hub", 1.0, cause="n-w0:1", before=0.0),
            dispatch("hub", 2.0),
            dispatch("hub", 3.0),
            dispatch("hub", 5.0, cause="n-w0:2", before=3.0),
        ]) == {"n-w0": (2, 3.0)}

    def test_an_instant_whose_first_dispatch_is_uncaused(self):
        assert self.attribute([
            dispatch("hub", 1.0),
            dispatch("hub", 4.0),
            dispatch("hub", 4.0, cause="n-w0:1", before=1.0),
            dispatch("hub", 4.0, cause="n-w1:1", before=1.0),
        ]) == {"n-w0": (1, 3.0), "n-w1": (1, 3.0)}

    def test_a_rollback_that_revisits_an_instant(self):
        # Restored to the cut at 2.0 after dispatching 3.0: ``before``
        # stays at 3.0, so the revisited 3.0 is a new group with no gap
        # and n-w1's first arrival there is not charged.
        assert self.attribute([
            dispatch("hub", 1.0, cause="n-w0:1", before=0.0),
            dispatch("hub", 2.0),
            dispatch("hub", 3.0, cause="n-w0:2", before=2.0),
            dispatch("hub", 2.5, cause="n-w1:1", before=3.0),
            dispatch("hub", 3.0, cause="n-w1:2", before=3.0),
            dispatch("hub", 4.0),
            dispatch("hub", 6.0, cause="n-w1:3", before=4.0),
        ]) == {"n-w0": (2, 2.0), "n-w1": (1, 2.0)}


class TestCounterTracks:
    SERIES = {"n-hub/scheduler.dispatched": {"points": [[1.0, 10],
                                                        [2.0, 25]]},
              "wire.out": {"points": [[1.5, 3], [2.5, "oops"],
                                      [3.0, True]]}}

    def test_series_param_adds_counter_events(self):
        document = chrome_trace([dispatch("hub", 1.0)],
                                series=self.SERIES)
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 3  # non-numeric and bool points skipped
        assert all(e["cat"] == "series" for e in counters)
        assert validate_chrome_trace(document) == []

    def test_node_prefixed_series_lands_on_that_process_row(self):
        document = chrome_trace([dispatch("hub", 1.0)],
                                series=self.SERIES)
        events = document["traceEvents"]
        by_label = {}
        for event in events:
            if event["ph"] == "C":
                by_label.setdefault(event["name"], event)
        assert by_label["scheduler.dispatched"]["args"] \
            == {"scheduler.dispatched": 10}
        hub_pid = next(e["pid"] for e in events
                       if e.get("ph") == "M"
                       and e.get("args", {}).get("name") == "n-hub")
        assert by_label["scheduler.dispatched"]["pid"] == hub_pid
        assert by_label["wire.out"]["ts"] == pytest.approx(1.5e6)

    def test_report_timeseries_picked_up_automatically(self):
        report = RunReport("r")
        report.trace_records = [dispatch("hub", 1.0)]
        report.timeseries = {"m": {"points": [[0.5, 7]]}}
        document = chrome_trace(report)
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert counters and counters[0]["args"] == {"m": 7}

    def test_wall_view_omits_counter_tracks(self):
        document = chrome_trace([dispatch("hub", 1.0, wall=5.0)],
                                view="wall", series=self.SERIES)
        assert not [e for e in document["traceEvents"]
                    if e["ph"] == "C"]


class TestValidateCounters:
    def _counter(self, **overrides):
        event = {"ph": "C", "cat": "series", "name": "m", "pid": 1,
                 "tid": 0, "ts": 0.0, "args": {"m": 1}}
        event.update(overrides)
        return event

    def test_clean_counter_event_passes(self):
        document = {"traceEvents": [self._counter()]}
        assert validate_chrome_trace(document) == []

    def test_counter_without_name_flagged(self):
        document = {"traceEvents": [self._counter(name="")]}
        assert any("without name" in p
                   for p in validate_chrome_trace(document))

    def test_counter_with_empty_args_flagged(self):
        document = {"traceEvents": [self._counter(args={})]}
        assert any("non-empty args" in p
                   for p in validate_chrome_trace(document))

    def test_counter_with_non_numeric_args_flagged(self):
        for bad in ({"m": "high"}, {"m": True}, {"m": None}):
            document = {"traceEvents": [self._counter(args=bad)]}
            assert any("numeric" in p
                       for p in validate_chrome_trace(document)), bad
