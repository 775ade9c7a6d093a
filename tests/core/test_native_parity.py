"""Differential tests: the native event core against the pure-python one.

The C extension (``repro._native._core``) must be observably
indistinguishable from ``PythonEvent``/``PythonEventQueue`` — same pop
order, same tie-breaking, same error messages, same snapshot/restore and
``remove_if`` behaviour under adversarial interleavings.  Every test
here drives *both* implementations with the same inputs and compares the
outputs, so the suite is meaningful in either CI leg: with the compiled
backend live it checks the fallback, with ``PIA_PURE=1`` it checks the
compiled artefact that the rest of the process is refusing.

Skips cleanly (rather than failing) when the extension was never built.
"""

import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_core = pytest.importorskip(
    "repro._native._core",
    reason="native hot core not built "
           "(python setup.py build_ext --inplace)")

import repro.core.scheduler as scheduler_module
from repro.core.errors import CausalityError
from repro.core.events import EventKind, PythonEvent, PythonEventQueue
from repro.core.timestamp import Timestamp


def _sink(event):
    """Shared CONTROL target for events on both backends."""


def _pair(time, priority, marker):
    """One logical event, constructed on both backends."""
    ts = Timestamp(time, priority)
    return (_core.Event(ts, EventKind.CONTROL, _sink, payload=marker),
            PythonEvent(ts, EventKind.CONTROL, _sink, payload=marker))


def _key(event):
    """The observable identity of a popped event."""
    return (event.time, event.priority, event.seq, event.payload)


def _drain(queue):
    out = []
    while queue:
        out.append(_key(queue.pop()))
    return out


#: (time, priority) pairs; small domains force heavy tie-breaking so the
#: seq-number third key actually decides orderings.
_STAMPS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
              st.integers(min_value=0, max_value=3)),
    min_size=0, max_size=40)


class TestPopOrderingParity:
    @given(_STAMPS)
    @settings(max_examples=200, deadline=None)
    def test_drain_order_identical(self, stamps):
        native, pure = _core.EventQueue(), PythonEventQueue()
        for marker, (time, priority) in enumerate(stamps):
            n_ev, p_ev = _pair(time, priority, marker)
            native.push(n_ev)
            pure.push(p_ev)
        assert len(native) == len(pure)
        assert _drain(native) == _drain(pure)

    @given(_STAMPS, st.integers(min_value=0, max_value=39))
    @settings(max_examples=100, deadline=None)
    def test_interleaved_push_pop(self, stamps, pop_every):
        """Pop mid-stream: later pushes must never outrun a frozen seq."""
        native, pure = _core.EventQueue(), PythonEventQueue()
        popped_n, popped_p = [], []
        for marker, (time, priority) in enumerate(stamps):
            n_ev, p_ev = _pair(time, priority, marker)
            native.push(n_ev)
            pure.push(p_ev)
            if pop_every and marker % (pop_every + 1) == pop_every:
                popped_n.append(_key(native.pop()))
                popped_p.append(_key(pure.pop()))
        assert popped_n == popped_p
        assert _drain(native) == _drain(pure)

    @given(_STAMPS)
    @settings(max_examples=100, deadline=None)
    def test_next_time_and_peek_track_pops(self, stamps):
        native, pure = _core.EventQueue(), PythonEventQueue()
        for marker, (time, priority) in enumerate(stamps):
            n_ev, p_ev = _pair(time, priority, marker)
            native.push(n_ev)
            pure.push(p_ev)
        while pure:
            assert native.next_time() == pure.next_time()
            assert _key(native.peek()) == _key(pure.peek())
            native.pop()
            pure.pop()
        assert native.next_time() == pure.next_time() == float("inf")
        assert native.peek() is None and pure.peek() is None


#: ``pop_ready`` bounds: finite floats, both infinities, NaN, Python
#: ints, and ``None`` standing for "exactly the head's time" (the bound
#: is inclusive).
_BOUNDS = st.one_of(
    st.floats(min_value=-1.0, max_value=9.0, allow_nan=False),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.integers(min_value=-1, max_value=9),
    st.none())

_POP_READY_SCRIPT = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("pop_ready"), _BOUNDS)),
    min_size=0, max_size=60)


class TestPopReadyParity:
    @given(_POP_READY_SCRIPT)
    @settings(max_examples=300, deadline=None)
    def test_interleaved_push_pop_ready(self, script):
        """The scheduler's one queue question gets one answer: the same
        marker-or-``None`` per call, the same events left behind."""
        native, pure = _core.EventQueue(), PythonEventQueue()
        answers_n, answers_p = [], []
        for marker, (op, *args) in enumerate(script):
            if op == "push":
                n_ev, p_ev = _pair(*args, marker)
                native.push(n_ev)
                pure.push(p_ev)
                continue
            bound = pure.next_time() if args[0] is None else args[0]
            for queue, answers in ((native, answers_n), (pure, answers_p)):
                event = queue.pop_ready(bound)
                answers.append(None if event is None else _key(event))
        assert answers_n == answers_p
        assert _drain(native) == _drain(pure)

    def test_empty_queue_has_nothing_ready(self):
        for bound in (float("inf"), 0.0, 3):
            assert _core.EventQueue().pop_ready(bound) is None
            assert PythonEventQueue().pop_ready(bound) is None

    def test_scheduler_has_one_run_loop_behind_the_queue_interface(self):
        """``run`` is one plain function for both backends, and the
        scheduler module never reaches past the queue's methods."""
        scheduler = scheduler_module.Scheduler
        assert inspect.isfunction(vars(scheduler)["run"])
        assert not hasattr(scheduler, "_run_pure")
        assert not hasattr(scheduler, "_run_native")
        source = inspect.getsource(scheduler_module)
        assert "_heap" not in source and "heappop" not in source


class TestRemoveIfParity:
    @given(_STAMPS, st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_remove_if_under_interleaving(self, stamps, modulo, residue):
        """remove_if mid-stream: same survivors, same counts, same order."""
        native, pure = _core.EventQueue(), PythonEventQueue()
        predicate = lambda event: event.payload % modulo == residue
        for marker, (time, priority) in enumerate(stamps):
            n_ev, p_ev = _pair(time, priority, marker)
            native.push(n_ev)
            pure.push(p_ev)
            if marker % 7 == 6:
                assert native.remove_if(predicate) == \
                    pure.remove_if(predicate)
            if marker % 11 == 10 and pure:
                assert _key(native.pop()) == _key(pure.pop())
        assert native.remove_if(predicate) == pure.remove_if(predicate)
        assert _drain(native) == _drain(pure)

    def test_predicate_error_leaves_queue_consistent(self):
        """A predicate that blows up mid-scan propagates on both backends
        and leaves a queue that still drains in order."""
        def boom(event):
            if event.payload == 2:
                raise RuntimeError("predicate boom")
            return False

        native, pure = _core.EventQueue(), PythonEventQueue()
        for marker in range(5):
            n_ev, p_ev = _pair(float(marker), 1, marker)
            native.push(n_ev)
            pure.push(p_ev)
        with pytest.raises(RuntimeError):
            native.remove_if(boom)
        with pytest.raises(RuntimeError):
            pure.remove_if(boom)
        assert _drain(native) == _drain(pure)

    def test_reentrant_mutation_is_refused(self):
        """The C heap cannot be structurally edited mid-``remove_if``
        (a realloc would invalidate the entry array being scanned)."""
        queue = _core.EventQueue()
        for marker in range(3):
            queue.push(_pair(float(marker), 1, marker)[0])

        def mutate(event):
            queue.push(_pair(9.0, 1, 99)[0])
            return False

        with pytest.raises(RuntimeError, match="remove_if"):
            queue.remove_if(mutate)


class TestSnapshotRestoreParity:
    @given(_STAMPS)
    @settings(max_examples=100, deadline=None)
    def test_snapshot_is_delivery_order_and_restore_round_trips(
            self, stamps):
        native, pure = _core.EventQueue(), PythonEventQueue()
        for marker, (time, priority) in enumerate(stamps):
            n_ev, p_ev = _pair(time, priority, marker)
            native.push(n_ev)
            pure.push(p_ev)
        snap_n = native.snapshot()
        snap_p = pure.snapshot()
        assert [_key(e) for e in snap_n] == [_key(e) for e in snap_p]
        assert list(map(_key, native)) == list(map(_key, pure))

        fresh_n, fresh_p = _core.EventQueue(), PythonEventQueue()
        fresh_n.restore(snap_n)
        fresh_p.restore(snap_p)
        assert _drain(fresh_n) == _drain(fresh_p)
        # The originals were left untouched by snapshot().
        assert _drain(native) == _drain(pure)


class TestErrorParity:
    def test_pop_empty_message(self):
        with pytest.raises(IndexError) as native_err:
            _core.EventQueue().pop()
        with pytest.raises(IndexError) as pure_err:
            PythonEventQueue().pop()
        assert str(native_err.value) == str(pure_err.value)

    @given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
           st.floats(min_value=0.001, max_value=100.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_past_scheduling_message(self, time, delta):
        now = time + delta
        n_ev, p_ev = _pair(time, 1, 0)
        with pytest.raises(CausalityError) as native_err:
            _core.EventQueue().push(n_ev, now=now)
        with pytest.raises(CausalityError) as pure_err:
            PythonEventQueue().push(p_ev, now=now)
        assert str(native_err.value) == str(pure_err.value)


class TestEventParity:
    def test_bare_float_ts_promotes_identically(self):
        n_ev = _core.Event(2.5, EventKind.CONTROL, _sink)
        p_ev = PythonEvent(2.5, EventKind.CONTROL, _sink)
        assert (n_ev.time, n_ev.priority, n_ev.seq) == \
            (p_ev.time, p_ev.priority, p_ev.seq)
        assert n_ev.ts == p_ev.ts

    def test_at_and_with_cause_copy(self):
        n_ev, p_ev = _pair(1.0, 2, "payload")
        later = Timestamp(3.0, 1)
        cause = ("trace", 1, None, 2)
        for native, pure in ((n_ev.at(later), p_ev.at(later)),
                             (n_ev.with_cause(cause), p_ev.with_cause(cause))):
            assert (native.time, native.priority) == \
                (pure.time, pure.priority)
            assert native.payload == pure.payload
            assert native.cause == pure.cause

    def test_code_matches_kind(self):
        for kind in EventKind:
            n_ev = _core.Event(Timestamp(0.0), kind, _sink)
            assert n_ev.code == kind.code

    def test_repr_matches(self):
        n_ev, p_ev = _pair(1.5, 2, "x")
        assert repr(n_ev) == repr(p_ev)

    def test_pickle_round_trip_lands_on_active_backend(self):
        """Events pickle through a backend-neutral rebuild hook, so the
        blob loads on whatever implementation the target process binds."""
        from repro.core.events import Event
        n_ev = _core.Event(Timestamp(4.0, 2, 7), EventKind.CONTROL, None,
                           payload={"k": 1}, token=9)
        clone = pickle.loads(pickle.dumps(n_ev))
        assert isinstance(clone, Event)
        assert (clone.time, clone.priority, clone.seq) == (4.0, 2, 7)
        assert clone.payload == {"k": 1} and clone.token == 9

    def test_push_requires_native_event(self):
        """The C queue stores unboxed scalars per entry, so it refuses
        foreign event objects instead of silently misordering them."""
        queue = _core.EventQueue()
        p_ev = PythonEvent(Timestamp(0.0), EventKind.CONTROL, _sink)
        with pytest.raises(TypeError):
            queue.push(p_ev)
