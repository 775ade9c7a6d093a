"""RunReport assembly: determinism, the disabled fast path, and the
end-to-end wiring through kernel, distributed layer and transport."""

import json
import os

import pytest

from repro.apps import WubbleUConfig, build_local, build_split, run_page_load
from repro.bench.workloads import compute_star

from repro.core import (
    Advance,
    Event,
    EventKind,
    FunctionComponent,
    PortDirection,
    ProcessComponent,
    Receive,
    Send,
    Simulator,
    Subsystem,
    Timestamp,
    WaitUntil,
)
from repro.distributed import ChannelMode, CoSimulation
from repro.transport import LAN
from repro.observability import (
    RunReport,
    Telemetry,
    TimeSeriesRecorder,
    TraceKind,
    attach_health,
    run_report,
)
from repro.observability.report import bundle, fold


class Ticker(ProcessComponent):
    def __init__(self, name, count=5):
        super().__init__(name)
        self.count = count
        self.add_port("out", PortDirection.OUT)

    def run(self):
        for i in range(self.count):
            yield Advance(1.0)
            yield Send("out", i)


class Sink(ProcessComponent):
    def __init__(self, name):
        super().__init__(name)
        self.seen = []
        self.add_port("in", PortDirection.IN)

    def run(self):
        while True:
            t, v = yield Receive("in")
            self.seen.append((t, v))


def _single_host(telemetry=None):
    sim = Simulator("obs", telemetry=telemetry)
    ticker = sim.add(Ticker("ticker"))
    sink = sim.add(Sink("sink"))
    sim.wire("n", ticker.port("out"), sink.port("in"))
    return sim, ticker, sink


def _cosim(telemetry=None):
    """A fixed conservative two-subsystem scenario.

    The channel id is pinned so two builds in one process are identical
    (the auto-generated ids come from a process-global counter).
    """
    cosim = CoSimulation(telemetry=telemetry)
    ss1 = cosim.add_subsystem(cosim.add_node("n1"), "ss1")
    ss2 = cosim.add_subsystem(cosim.add_node("n2"), "ss2")

    def sender(comp):
        yield Advance(2.0)
        yield Send("out", "ping")

    def waiter(comp):
        comp.order = []
        t = yield WaitUntil(5.0)
        comp.order.append(t)

    def listener(comp):
        t, v = yield Receive("in")
        comp.got = (t, v)

    ss2.add(FunctionComponent("sender", sender, ports={"out": "out"}))
    ss1.add(FunctionComponent("waiter", waiter))
    listen = FunctionComponent("listener", listener, ports={"in": "in"})
    ss1.add(listen)
    channel = cosim.connect(ss1, ss2, mode=ChannelMode.CONSERVATIVE,
                            channel_id="obs-ch")
    channel.split_net(ss1.wire("net", listen.port("in")),
                      ss2.wire("net", cosim.subsystems["ss2"]
                               .components["sender"].port("out")))
    cosim.run()
    return cosim


def _scheduler_run(telemetry, events=50_000):
    """A bare subsystem dispatching one self-rescheduling CONTROL event
    ``events`` times: the scheduler hot loop and nothing else."""
    subsystem = Subsystem("silent")
    subsystem.attach_telemetry(telemetry)
    scheduler = subsystem.scheduler
    remaining = events

    def tick(event):
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            scheduler.schedule(Event(event.time + 1.0,
                                     EventKind.CONTROL, tick))

    scheduler.schedule(Event(Timestamp(0.0), EventKind.CONTROL, tick))
    assert scheduler.run() == events


class TestSingleHostWiring:
    def test_scheduler_counters_flow_into_report(self):
        sim, __, sink = _single_host()
        sim.run()
        report = sim.report()
        assert report.counter("scheduler.dispatched") > 0
        assert report.counter("scheduler.dispatched") == \
            sim.subsystem.scheduler.dispatched
        assert len(sink.seen) == 5
        assert report.subsystems[0]["name"] == "obs"
        assert report.subsystems[0]["time"] == sim.now

    def test_checkpoint_counters_and_traces(self):
        sim, __, ___ = _single_host()
        sim.run(until=2.5)
        cid = sim.checkpoint("mid")
        sim.run()
        sim.restore(cid)
        report = sim.report()
        assert report.counter("checkpoint.saves") >= 1
        assert report.counter("checkpoint.restores") == 1
        kinds = report.trace_counts
        assert kinds.get(TraceKind.CHECKPOINT_SAVE, 0) >= 1
        assert kinds.get(TraceKind.CHECKPOINT_RESTORE, 0) == 1

    def test_dispatch_traces_recorded(self):
        # Two nodes: only a dispatch caused across a channel is recorded.
        cosim = _cosim()
        records = [r for r in cosim.telemetry.trace_buffer
                   if r.kind == TraceKind.DISPATCH]
        assert records
        assert all(r.details["cause"] for r in records)
        # virtual times on dispatch records are monotonically nondecreasing
        times = [r.time for r in records]
        assert times == sorted(times)


class TestCoSimulationWiring:
    def test_full_stack_counters(self):
        cosim = _cosim()
        report = cosim.report()
        assert report.counter("scheduler.dispatched") > 0
        assert report.counter("safetime.requests") > 0
        assert report.counter("transport.messages") > 0
        assert report.counter("transport.bytes") > 0
        link_counters = [name for name in report.counters
                         if name.startswith("link.")]
        assert link_counters
        assert report.link_totals()["bytes"] == \
            report.counter("transport.bytes")

    def test_message_traces_have_byte_counts(self):
        cosim = _cosim()
        sends = [r for r in cosim.telemetry.trace_buffer
                 if r.kind == TraceKind.MSG_SEND]
        assert sends
        assert all(record.details["bytes"] > 0 for record in sends)
        assert all("->" in record.subject for record in sends)


class TestDeterminism:
    def test_identical_reports_across_two_runs(self):
        first = _cosim().report(title="det")
        second = _cosim().report(title="det")
        assert first.to_dict() == second.to_dict()
        assert first.to_json() == second.to_json()

    def test_json_round_trips(self):
        report = _cosim().report(title="json")
        data = json.loads(report.to_json())
        assert data["title"] == "json"
        assert data["counters"] == report.counters
        assert "timings" not in data  # wall-clock excluded by default

    def test_timings_opt_in(self):
        report = _cosim().report()
        assert "timings" in report.to_dict(include_timings=True)


class TestDisabledFastPath:
    def test_disabled_telemetry_records_nothing(self):
        cosim = _cosim(telemetry=Telemetry(enabled=False))
        report = cosim.report()
        assert report.counters == {}
        assert report.gauges == {}
        assert report.trace_counts == {}
        # the simulation itself is unaffected
        assert cosim.subsystems["ss1"].components["listener"].got[1] == "ping"
        # Second input: the bare dispatch loop, long enough that a
        # per-event touch of any instrument could not go unnoticed.
        dark = Telemetry(enabled=False)
        _scheduler_run(dark)
        for telemetry in (cosim.telemetry, dark):
            snapshot = telemetry.registry.snapshot()
            assert snapshot["counters"] == {}
            assert snapshot["gauges"] == {}
            assert snapshot["histograms"] == {}
            assert list(telemetry.trace_buffer) == []

    def test_behaviour_identical_with_and_without_telemetry(self):
        enabled = _cosim()
        disabled = _cosim(telemetry=Telemetry(enabled=False))
        for cosim in (enabled, disabled):
            assert cosim.subsystems["ss1"].components["listener"].got == \
                enabled.subsystems["ss1"].components["listener"].got
            assert cosim.subsystems["ss1"].now == \
                enabled.subsystems["ss1"].now

    def test_report_on_bare_object_rejected(self):
        for target in (object(), 42):
            with pytest.raises(TypeError, match="subsystems mapping"):
                run_report(target)


class TestRender:
    def test_render_mentions_every_section(self):
        report = _cosim().report(title="render-me")
        text = report.render()
        assert "RunReport: render-me" in text
        assert "ss1" in text and "ss2" in text
        assert "scheduler.dispatched" in text
        assert "trace records" in text

    def test_save_json(self, tmp_path):
        report = _cosim().report()
        path = tmp_path / "report.json"
        report.save_json(str(path))
        assert json.loads(path.read_text())["counters"]
        # Every to_dict switch passes through (include_trace used to
        # raise TypeError in to_json).
        report.save_json(str(path), include_trace=True, include_health=True,
                         include_series=True, include_timings=True)
        assert json.loads(path.read_text()) == json.loads(json.dumps(
            report.to_dict(include_trace=True, include_health=True,
                           include_series=True, include_timings=True)))


class TestBundleFold:
    """One assembler: a report is the fold of process bundles."""

    ALL = dict(include_trace=True, include_series=True, include_health=True,
               include_timings=True)

    @pytest.fixture(scope="class")
    def golden(self):
        path = os.path.join(os.path.dirname(__file__),
                            "golden_two_node_batched.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def test_fold_of_one_bundle_is_the_parents_run_report(self, golden):
        """Inputs and output recorded at the commit before the shared
        assembler existed: the fold must reproduce ``run_report``."""
        report = fold("co-simulation", [golden["bundle"]])
        assert report.to_dict(**self.ALL) == golden["report"]

    def test_live_bundle_matches_the_recorded_one(self, golden):
        """The same scenario today, through ``bundle()``: everything the
        cooperative executor makes deterministic is unchanged."""
        cosim = compute_star(1, 3, words=10, batching=True)
        cosim.telemetry.attach_series(
            TimeSeriesRecorder(virtual_interval=1.0))
        attach_health(cosim.transport, cosim.telemetry)
        cosim.run(until=100.0)
        document = cosim.report().to_dict(include_trace=True,
                                          include_series=True)
        expected = {key: value for key, value in golden["report"].items()
                    if key not in ("link_health", "timings")}
        # Compared as JSON: a record's span is a tuple live, a list read
        # back from the file.
        assert json.loads(json.dumps(document)) == expected

    def test_superseded_bundle_adds_activity_not_placement(self, golden):
        part = golden["bundle"]
        once = fold("t", [part])
        twice = fold("t", [part], superseded=[part])
        assert twice.counters == {name: 2 * value for name, value
                                  in once.counters.items()}
        assert twice.trace_counts == {kind: 2 * count for kind, count
                                      in once.trace_counts.items()}
        assert twice.histograms["transport.batch_size"]["count"] \
            == 2 * once.histograms["transport.batch_size"]["count"]
        assert len(twice.trace_records) == 2 * len(once.trace_records)
        for placement in ("subsystems", "links", "gauges", "timeseries"):
            assert getattr(twice, placement) == getattr(once, placement)
        assert [(row["src"], row["dst"], row["messages"])
                for row in twice.link_health] \
            == [(row["src"], row["dst"], row["messages"])
                for row in once.link_health]

    def test_named_bundles_are_keyed_and_interleaved(self, golden):
        """The two places a many-process fold differs from a one-process
        one: ``node/metric`` series keys and (time, node, seq) order."""
        hub = dict(golden["bundle"], node="n-hub")
        own = bundle(Telemetry())
        report = fold("t", [own, hub])
        assert set(report.timeseries) \
            == {f"n-hub/{name}" for name in golden["report"]["timeseries"]}
        assert report.trace_dropped_by_node == {"n-hub": 0}
        assert all(rec["node"] == "n-hub" for rec in report.trace_records)
        keys = [(rec["time"], rec["seq"]) for rec in report.trace_records]
        assert keys == sorted(keys)


class TestPlacementSections:
    """Every part of the system in the report: components, nets,
    interfaces and channel ends, for one subsystem or many."""

    SMALL = dict(total_bytes=12_000, image_count=2, image_size=48)

    def _demo(self, until=float("inf")):
        sim = Simulator("demo")

        def produce(comp):
            for i in range(3):
                yield Advance(1.0)
                yield Send("out", i)

        def consume(comp):
            for __ in range(3):
                yield Receive("in")

        p = sim.add(FunctionComponent("p", produce, ports={"out": "out"}))
        c = sim.add(FunctionComponent("c", consume, ports={"in": "in"}))
        sim.wire("w", p.port("out"), c.port("in"))
        sim.run(until=until)
        sim.checkpoint()
        return sim

    def test_collects_everything(self):
        report = self._demo().report()
        assert report.title == "demo"
        assert [row["name"] for row in report.components] == ["c", "p"]
        assert report.subsystems[0]["checkpoints"] == 1
        assert report.nets == [{"name": "w", "subsystem": "demo",
                                "posts": 3}]
        statuses = {row["name"]: row["status"] for row in report.components}
        assert statuses == {"p": "finished", "c": "finished"}
        assert report.channels == []
        data = report.to_dict()
        for section in ("components", "nets", "interfaces", "channels"):
            assert data[section] == getattr(report, section)

    def test_paused_run_shows_a_blocked_component(self):
        # The producer runs ahead of system time to its end; the consumer
        # is parked on its second receive.
        report = self._demo(until=1.5).report()
        assert [(row["name"], row["local_time"], row["status"])
                for row in report.components] \
            == [("c", 1.0, "blocked"), ("p", 3.0, "finished")]

    def test_render_contains_tables(self):
        text = self._demo().report().render()
        assert "component  subsystem  local time  status    level" in text
        assert "net  subsystem  posts" in text

    def test_wubbleu_split_report(self):
        cosim, __, ___ = build_split(
            WubbleUConfig(level="packet", **self.SMALL), network=LAN)
        run_page_load(cosim, location="remote", level="packet")
        report = cosim.report(title="wubbleu")
        names = {row["name"] for row in report.components}
        assert {"UI", "Browser", "NetIf", "Origin"} <= names
        assert not any(name.startswith("__channel") for name in names)
        assert len(report.channels) == 2           # one endpoint per side
        for row in report.channels:
            assert row["mode"] == "conservative"
            assert row["forwarded"] > 0 or row["injected"] > 0
        interfaces = {row["name"]: row for row in report.interfaces}
        assert interfaces["NetIf.bus"]["payload"] >= 12_000
        assert "channel end" in report.render()

    def test_local_wubbleu_has_no_channels(self):
        cosim, __, ___ = build_local(
            WubbleUConfig(level="packet", **self.SMALL))
        run_page_load(cosim, location="local", level="packet")
        assert cosim.report().channels == []


def _part(node=None, **sections):
    """An empty process bundle named ``node``, with ``sections`` set."""
    return dict(bundle(Telemetry()), node=node, **sections)


class TestFoldRules:
    """The rule each section folds by, one bundle against another."""

    def test_counters_faults_and_trace_counts_sum(self):
        report = fold("t", [_part(counters={"a": 1}, faults={"drop": 2}),
                            _part(counters={"a": 2, "b": 5},
                                  faults={"drop": 1},
                                  trace_counts={"dispatch": 4})])
        assert report.counters == {"a": 3, "b": 5}
        assert report.faults == {"drop": 3}
        assert report.trace_counts == {"dispatch": 4}

    def test_gauges_keep_maximum(self):
        report = fold("t", [
            _part(gauges={"rounds": 10.0, "depth": 3.0}),
            _part(gauges={"rounds": 7.0, "depth": 9.0, "new": 1.0})])
        assert report.gauges == {"rounds": 10.0, "depth": 9.0, "new": 1.0}

    def test_timings_sum_totals_and_counts(self):
        report = fold("t", [
            _part(timings={"run": {"total_seconds": 1.0, "count": 2}}),
            _part(timings={"run": {"total_seconds": 0.5, "count": 1},
                           "idle": {"total_seconds": 3.0, "count": 4}})])
        assert report.timings["run"] == {"total_seconds": 1.5, "count": 3}
        assert report.timings["idle"] == {"total_seconds": 3.0, "count": 4}

    def test_links_merge_by_directed_link_and_sort(self):
        def row(src, dst, messages, frames):
            return {"src": src, "dst": dst, "model": "same-host",
                    "messages": messages, "bytes": 10 * messages,
                    "delay": 0.1 * messages, "frames": frames}
        report = fold("t", [_part(links=[row("b", "a", 1, 1),
                                         row("a", "b", 2, 2)]),
                            _part(links=[row("a", "b", 3, 1)])])
        assert [(r["src"], r["dst"]) for r in report.links] == \
            [("a", "b"), ("b", "a")]
        ab = report.links[0]
        assert (ab["messages"], ab["bytes"], ab["frames"]) == (5, 50, 3)
        assert abs(ab["delay"] - 0.5) < 1e-12

    def test_link_row_without_frames_counts_its_messages(self):
        have = {"src": "a", "dst": "b", "model": "m", "messages": 2,
                "bytes": 1, "delay": 0.0, "frames": 2}
        legacy = {"src": "a", "dst": "b", "model": "m", "messages": 4,
                  "bytes": 1, "delay": 0.0}
        report = fold("t", [_part(links=[have]), _part(links=[legacy])])
        assert report.links[0]["frames"] == 6

    def test_health_rows_merge_then_score(self):
        def row(src, dst, messages, ewma):
            return {"src": src, "dst": dst, "messages": messages,
                    "frames": messages, "bytes": 10, "delay": 0.0,
                    "rate": 1.0, "ewma_delay": ewma, "queue_depth": 0.0,
                    "queue_peak": messages}
        report = fold("t", [_part(health=[row("b", "a", 1, 0.5),
                                          row("a", "b", 1, 1.0)]),
                            _part(health=[row("a", "b", 3, 2.0)])])
        ab, ba = report.link_health
        assert (ab["src"], ba["src"]) == ("a", "b")
        assert (ab["messages"], ab["bytes"], ab["queue_peak"]) == (4, 20, 3)
        assert ab["ewma_delay"] == pytest.approx(1.75)
        assert "score" in ab and "recommendation" in ab

    def _interleaved(self, **streams):
        return fold("t", [_part()] + [_part(node, trace=records)
                                      for node, records in streams.items()]
                    ).trace_records

    def test_interleaves_streams_in_time_node_seq_order(self):
        merged = self._interleaved(
            n2=[{"seq": 1, "kind": "dispatch", "time": 1.0, "subject": "b"},
                {"seq": 2, "kind": "dispatch", "time": 3.0, "subject": "b"}],
            n1=[{"seq": 1, "kind": "dispatch", "time": 2.0, "subject": "a"},
                {"seq": 2, "kind": "dispatch", "time": 2.0, "subject": "a"}])
        assert [(r["node"], r["time"], r["seq"]) for r in merged] == [
            ("n2", 1.0, 1), ("n1", 2.0, 1), ("n1", 2.0, 2), ("n2", 3.0, 2)]

    def test_tags_every_record_with_its_node(self):
        merged = self._interleaved(n1=[{"seq": 1, "time": 0.0}])
        assert merged[0]["node"] == "n1"

    def test_same_time_orders_by_node_then_seq(self):
        merged = self._interleaved(b=[{"seq": 1, "time": 5.0}],
                                   a=[{"seq": 9, "time": 5.0}])
        assert [r["node"] for r in merged] == ["a", "b"]

    def test_preserves_existing_node_tag(self):
        tagged = {"seq": 1, "time": 0.0, "node": "n1"}
        assert self._interleaved(n1=[tagged]) == [tagged]
