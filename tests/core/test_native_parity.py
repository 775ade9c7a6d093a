"""Differential tests: the native event core against the pure-python one.

The C extension (``repro._native._core``) must be observably
indistinguishable from ``PythonEvent``/``PythonEventQueue`` — same pop
order, same tie-breaking, same error messages, same snapshot/restore
behaviour under adversarial interleavings, and the same public surface
(the queue's is exactly what the kernel asks of it).  Every test
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


INF = float("inf")


def _key(event):
    """The observable identity of a popped event."""
    return (event.time, event.priority, event.seq, event.payload)


def _drain(queue):
    out = []
    while queue:
        out.append(_key(queue.pop_ready(INF)))
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
                popped_n.append(_key(native.pop_ready(INF)))
                popped_p.append(_key(pure.pop_ready(INF)))
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
            native.pop_ready(INF)
            pure.pop_ready(INF)
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

        fresh_n, fresh_p = _core.EventQueue(), PythonEventQueue()
        fresh_n.restore(snap_n)
        fresh_p.restore(snap_p)
        assert _drain(fresh_n) == _drain(fresh_p)
        # The originals were left untouched by snapshot().
        assert _drain(native) == _drain(pure)


class TestErrorParity:
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

    def test_with_cause_copy(self):
        n_ev, p_ev = _pair(1.0, 2, "payload")
        cause = ("trace", 1, None, 2)
        native, pure = n_ev.with_cause(cause), p_ev.with_cause(cause)
        assert (native.time, native.priority) == (pure.time, pure.priority)
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


def _public_callables(cls):
    return {name for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))}


class TestOneQueueContract:
    """Both backends expose one surface, and the queue's is exactly what
    the scheduler and a checkpoint ask of it: a method added to one
    backend, or a second copy of a path the kernel already runs, shows
    up here and nowhere else."""

    def test_backends_expose_the_same_public_callables(self):
        assert _public_callables(_core.Event) == \
            _public_callables(PythonEvent)
        assert _public_callables(_core.EventQueue) == \
            _public_callables(PythonEventQueue)

    def test_queue_is_what_the_kernel_asks_of_it(self):
        assert _public_callables(PythonEventQueue) == {
            "push", "pop_ready", "peek", "next_time", "snapshot", "restore"}

    def test_len_and_bool_but_no_iteration(self):
        for queue, event in ((_core.EventQueue(), _pair(1.0, 1, 0)[0]),
                             (PythonEventQueue(), _pair(1.0, 1, 0)[1])):
            assert len(queue) == 0 and not queue
            queue.push(event)
            assert len(queue) == 1 and queue
            with pytest.raises(TypeError):
                iter(queue)
