"""Unit tests for the bounded structured trace buffer."""

import pytest

from repro.observability import Telemetry, TraceBuffer, TraceKind, TraceRecord


def of_kind(buffer, kind):
    return [record for record in buffer if record.kind == kind]


def _fill(buf, count, kind=TraceKind.DISPATCH):
    for i in range(count):
        buf.append(TraceRecord(i + 1, kind, float(i), "ss"))


class TestBoundedness:
    def test_capacity_is_a_hard_bound(self):
        buf = TraceBuffer(capacity=8)
        _fill(buf, 100)
        assert len(buf) == 8
        assert buf.appended == 100
        assert buf.dropped == 92

    def test_keeps_the_most_recent_records(self):
        buf = TraceBuffer(capacity=4)
        _fill(buf, 10)
        assert [r.time for r in buf] == [6.0, 7.0, 8.0, 9.0]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


class TestFiltering:
    def test_counts_by_kind_covers_retained_records(self):
        buf = TraceBuffer(capacity=16)
        _fill(buf, 3, kind=TraceKind.MSG_SEND)
        buf.append(TraceRecord(4, TraceKind.ROLLBACK, 0.0, "ss"))
        assert buf.counts_by_kind() == {TraceKind.MSG_SEND: 3,
                                        TraceKind.ROLLBACK: 1}


class TestRecord:
    def test_to_dict_flattens_details(self):
        record = TraceRecord(7, TraceKind.GRANT, 2.5, "ss1",
                             {"peer": "ss2", "desired": 3.0})
        assert record.to_dict() == {"seq": 7, "kind": "grant", "time": 2.5,
                                    "subject": "ss1", "peer": "ss2",
                                    "desired": 3.0}

    def test_to_dict_namespaces_colliding_detail_keys(self):
        """Regression: a detail named seq/kind/time/subject used to
        overwrite the record's own field in the flattened dict (the fault
        injector's records carry a per-link ``seq`` detail)."""
        record = TraceRecord(7, TraceKind.FAULT_INJECT, 2.5, "a->b",
                             {"action": "drop", "seq": 99, "time": -1.0})
        data = record.to_dict()
        assert data["seq"] == 7
        assert data["time"] == 2.5
        assert data["detail.seq"] == 99
        assert data["detail.time"] == -1.0
        assert data["action"] == "drop"

    def test_wall_clock_excluded_from_equality_and_dict(self):
        a = TraceRecord(1, TraceKind.DISPATCH, 0.0, "ss", wall=10.0)
        b = TraceRecord(1, TraceKind.DISPATCH, 0.0, "ss", wall=20.0)
        assert a == b
        assert "wall" not in a.to_dict()


class TestTelemetryTraceIntegration:
    def test_telemetry_assigns_monotone_sequence_numbers(self):
        telemetry = Telemetry(trace_capacity=8)
        telemetry.trace(TraceKind.CHECKPOINT_SAVE, time=1.0, subject="ss")
        telemetry.trace(TraceKind.CHECKPOINT_RESTORE, time=2.0, subject="ss")
        seqs = [r.seq for r in telemetry.trace_buffer]
        assert seqs == [1, 2]

    def test_capacity_respected_through_telemetry(self):
        telemetry = Telemetry(trace_capacity=3)
        for i in range(10):
            telemetry.trace(TraceKind.DISPATCH, time=float(i))
        assert len(telemetry.trace_buffer) == 3
        assert telemetry.trace_buffer.dropped == 7

    def test_details_kwargs_become_record_details(self):
        telemetry = Telemetry()
        telemetry.trace(TraceKind.MSG_SEND, time=4.0, subject="a->b",
                        message_kind="event", bytes=42)
        record = list(telemetry.trace_buffer)[0]
        assert record.details == {"message_kind": "event", "bytes": 42}


class TestRecordContract:
    """What the hand-written slotted class owes its readers — the frozen
    dataclass it replaced set these terms."""

    def _record(self, **overrides):
        fields = dict(seq=3, kind=TraceKind.MSG_SEND, time=1.5,
                      subject="a->b",
                      details={"message_kind": "signal", "bytes": 9},
                      wall=12.5)
        fields.update(overrides)
        return TraceRecord(**fields)

    def test_equality_reads_every_field_but_wall(self):
        base = self._record()
        assert base == self._record(wall=99.0)
        for change in (dict(seq=4), dict(kind=TraceKind.MSG_RECV),
                       dict(time=2.0), dict(subject="b->a"),
                       dict(details={"message_kind": "signal"})):
            assert base != self._record(**change)
        assert base != base.to_dict()

    def test_repr_shows_every_field_wall_included(self):
        assert repr(self._record()) == (
            "TraceRecord(seq=3, kind='msg-send', time=1.5, subject='a->b', "
            "details={'message_kind': 'signal', 'bytes': 9}, wall=12.5)")

    def test_holds_a_dict_so_it_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(self._record())

    def test_defaults_are_empty_details_and_no_wall_stamp(self):
        record = TraceRecord(1, TraceKind.DISPATCH, 0.0, "ss")
        other = TraceRecord(2, TraceKind.DISPATCH, 0.0, "ss")
        assert record.details == {} and record.wall == 0.0
        assert record.details is not other.details

    def test_to_dict_key_order_is_core_fields_then_details_as_given(self):
        assert list(self._record().to_dict()) == [
            "seq", "kind", "time", "subject", "message_kind", "bytes"]

    def test_record_dicts_adds_the_wall_stamp_and_passes_dicts_through(self):
        from repro.observability.trace import record_dicts
        record = self._record()
        flat = dict(record.to_dict(), wall=12.5)
        assert record_dicts([record, flat]) == [flat, flat]

    def test_pickle_round_trip_keeps_every_field(self):
        import pickle
        record = self._record()
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and copy.wall == record.wall
        assert copy.details is not record.details

    def test_keyword_and_positional_forms_build_equal_records(self):
        by_keyword, by_position = Telemetry(), Telemetry()
        by_keyword.trace(TraceKind.GRANT, time=2.0, subject="ss",
                         peer="other", desired=3.0)
        made = by_position.emit(TraceKind.GRANT, 2.0, "ss",
                                {"peer": "other", "desired": 3.0})
        assert list(by_position.trace_buffer) == [made]
        assert list(by_keyword.trace_buffer) == [made]
        assert made.seq == 1 and made.wall > 0.0

    def test_emit_while_disabled_records_nothing_and_draws_no_seq(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.emit(TraceKind.GRANT, 0.0, "ss", {}) is None
        telemetry.enabled = True
        assert telemetry.emit(TraceKind.GRANT, 0.0, "ss", {}).seq == 1

    def test_every_core_field_name_is_usable_as_a_detail(self):
        """``trace(kind, time=..., subject=...)`` can never carry a detail
        called kind, time or subject — the keywords are taken — so only
        ``seq`` ever reached the ``detail.<key>`` rule.  The positional
        form takes a ready dict and reaches it for all four."""
        telemetry = Telemetry()
        with pytest.raises(TypeError):
            telemetry.trace(TraceKind.FAULT_INJECT, kind="drop")
        record = telemetry.emit(
            TraceKind.FAULT_INJECT, 2.5, "a->b",
            {"kind": "drop", "time": -1.0, "subject": "x", "seq": 99})
        assert record.to_dict() == {
            "seq": 1, "kind": "fault-inject", "time": 2.5, "subject": "a->b",
            "detail.kind": "drop", "detail.time": -1.0,
            "detail.subject": "x", "detail.seq": 99}

    def test_a_lit_note_draws_a_seq_and_a_black_box_only_one_gets_zero(self):
        telemetry = Telemetry()
        telemetry.note(TraceKind.STALL, time=1.0, subject="ss", horizon=2.0)
        lit, = list(telemetry.trace_buffer)
        assert lit.seq == 1
        assert list(telemetry.flight) == [lit]      # one record, two rings
        telemetry.disable()
        telemetry.note(TraceKind.STALL, time=3.0, subject="ss", horizon=4.0)
        assert len(telemetry.trace_buffer) == 1
        dark = list(telemetry.flight)[-1]
        assert (dark.seq, dark.time, dark.details) == (0, 3.0,
                                                       {"horizon": 4.0})
        telemetry.enabled = True
        telemetry.trace(TraceKind.DISPATCH)
        assert list(telemetry.trace_buffer)[-1].seq == 2

    def test_hot_sites_build_the_same_record_with_one_c_call(self):
        fields = (3, TraceKind.MSG_SEND, 1.5, "a->b", {"bytes": 9}, 12.5)
        made = tuple.__new__(TraceRecord, fields)
        assert type(made) is TraceRecord and made == TraceRecord(*fields)
        assert repr(made) == repr(TraceRecord(*fields))

    def test_note_with_both_rings_off_records_nothing(self):
        telemetry = Telemetry(enabled=False)
        telemetry.flight.enabled = False
        telemetry.note(TraceKind.STALL, time=1.0, subject="ss")
        assert len(telemetry.flight) == 0 == len(telemetry.trace_buffer)


class TestRecordShape:
    """One record shape: the six-tuple ``(seq, kind, time, subject,
    details, wall)`` with named, read-only fields."""

    FIELDS = (3, TraceKind.MSG_SEND, 1.5, "a->b", {"bytes": 9}, 12.5)

    def test_a_six_tuple_with_named_fields(self):
        record = TraceRecord(*self.FIELDS)
        assert isinstance(record, tuple) and tuple(record) == self.FIELDS
        assert (record.seq, record.kind, record.time, record.subject,
                record.details, record.wall) == self.FIELDS

    def test_fields_are_read_only(self):
        record = TraceRecord(*self.FIELDS)
        for name in ("seq", "kind", "time", "subject", "details", "wall"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert tuple(record) == self.FIELDS

    def test_equality_ignores_wall_and_only_wall(self):
        a = TraceRecord(*self.FIELDS)
        b = TraceRecord(*self.FIELDS[:5], wall=99.0)
        assert a == b and not a != b
        assert tuple(a) != tuple(b)

    def test_a_tuple_that_is_still_unhashable(self):
        record = TraceRecord(1, TraceKind.DISPATCH, 0.0, "ss")
        assert isinstance(record, tuple)
        with pytest.raises(TypeError):
            hash(record)

    def test_pickle_round_trips_all_six_fields(self):
        import pickle
        record = TraceRecord(*self.FIELDS)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is TraceRecord and tuple(copy) == self.FIELDS


#: A cause span as a channel crossing stamps it on an event.
CAUSE = ("n-peer", 0, 1)


def control_subsystem(steps):
    """A lit bare subsystem with one no-op CONTROL event per ``(time,
    caused)`` step."""
    from repro.core import Event, EventKind, Subsystem, Timestamp

    subsystem = Subsystem("ss")
    subsystem.attach_telemetry(Telemetry())
    for time, caused in steps:
        subsystem.scheduler.schedule(Event(
            Timestamp(time), EventKind.CONTROL, lambda event: None,
            cause=CAUSE if caused else None))
    return subsystem


def dispatch_rows(subsystem):
    return [(r.time, r.details["before"]) for r in
            of_kind(subsystem.telemetry.trace_buffer, TraceKind.DISPATCH)]


class TestCausedDispatchRecords:
    """A dispatch files a ``DISPATCH`` record iff it has a cause; the
    record's ``before`` is the highest instant dispatched before its
    own, which a restore never lowers and an image carries."""

    STEPS = [(1.0, False), (2.0, True), (2.0, False), (2.0, True),
             (3.0, False), (5.0, True)]

    def test_only_caused_dispatches_are_recorded_with_before(self):
        subsystem = control_subsystem(self.STEPS)
        assert subsystem.scheduler.run() == 6
        assert dispatch_rows(subsystem) == [(2.0, 1.0), (2.0, 1.0),
                                            (5.0, 3.0)]
        record = of_kind(subsystem.telemetry.trace_buffer,
                         TraceKind.DISPATCH)[0]
        assert record.details == {"event": "control", "cause": CAUSE,
                                  "before": 1.0}
        assert subsystem.telemetry.registry.snapshot()["counters"][
            "scheduler.dispatched"] == 6

    def test_a_lit_single_host_run_files_no_dispatch_record(self):
        from repro.core import FunctionComponent, Simulator, WaitUntil
        from repro.observability.flight import STRIDE

        def ticker(comp):
            for __ in range(2 * STRIDE + 100):
                yield WaitUntil(comp.local_time + 1.0)

        lit, dark = (Simulator(telemetry=Telemetry(enabled=enabled))
                     for enabled in (True, False))
        for sim in (lit, dark):
            sim.add(FunctionComponent("ticker", ticker))
            sim.run()
        assert of_kind(lit.telemetry.trace_buffer, TraceKind.DISPATCH) == []
        dispatched = lit.subsystem.scheduler.dispatched
        assert dispatched == dark.subsystem.scheduler.dispatched > 2 * STRIDE
        assert lit.report().counter("scheduler.dispatched") == dispatched
        lit_samples, dark_samples = (
            [(r.seq, r.time) for r in
             of_kind(sim.telemetry.flight, TraceKind.DISPATCH)]
            for sim in (lit, dark))
        assert lit_samples == dark_samples
        assert [seq for seq, __ in lit_samples] == [STRIDE, 2 * STRIDE]

    def test_a_rollback_never_lowers_before(self):
        from repro.core.checkpoint import capture, reinstate

        steps = [(1.0, False), (2.0, True), (3.0, True), (4.0, True)]
        uninterrupted = control_subsystem(steps)
        uninterrupted.scheduler.run()
        assert dispatch_rows(uninterrupted) == [(2.0, 1.0), (3.0, 2.0),
                                                (4.0, 3.0)]

        subsystem = control_subsystem(steps)
        subsystem.scheduler.run(until=2.0)
        image = capture(subsystem, 1)
        assert (image.reached, image.before) == (2.0, 1.0)
        subsystem.scheduler.run()
        reinstate(subsystem, image)     # rewound from 4.0 to 2.0
        subsystem.scheduler.run()
        # What the rollback revisits opens no gap: 3.0 - 4.0, 4.0 - 4.0.
        assert dispatch_rows(subsystem)[3:] == [(3.0, 4.0), (4.0, 4.0)]

    def test_a_restore_to_the_current_instant_continues_its_group(self):
        from repro.core.checkpoint import capture, reinstate

        subsystem = control_subsystem([(1.0, False), (2.0, True),
                                       (2.0, True), (3.0, True)])
        subsystem.scheduler.run(max_events=2)
        image = capture(subsystem, 1)
        subsystem.scheduler.run(max_events=1)
        reinstate(subsystem, image)     # back to the middle of 2.0
        subsystem.scheduler.run()
        assert dispatch_rows(subsystem) == [(2.0, 1.0), (2.0, 1.0),
                                            (2.0, 1.0), (3.0, 2.0)]

    def test_a_freshly_built_subsystem_resumes_the_images_instant(self):
        from repro.core.checkpoint import capture, reinstate

        steps = [(1.0, False), (2.0, True), (2.0, True), (3.0, True)]
        subsystem = control_subsystem(steps)
        subsystem.scheduler.run(max_events=2)
        image = capture(subsystem, 1)
        fresh = control_subsystem([])
        reinstate(fresh, image)         # a migration or a failover
        assert (fresh.scheduler.reached, fresh.scheduler.before) \
            == (2.0, 1.0)
        fresh.scheduler.run()
        assert dispatch_rows(fresh) == [(2.0, 1.0), (3.0, 2.0)]

    def test_an_incremental_store_keeps_before(self):
        from repro.core import IncrementalCheckpointStore

        subsystem = control_subsystem(self.STEPS)
        store = IncrementalCheckpointStore(full_every=4)
        subsystem.scheduler.run(until=1.0)
        store.take(subsystem)
        subsystem.scheduler.run(until=3.0)
        cid = store.take(subsystem)
        restored = store.image(cid)
        assert (restored.reached, restored.before) == (3.0, 2.0)
