"""Checkpoint/restore: full images, replay, incremental stores."""

import os
import pickle
import subprocess
import sys

import pytest

import repro

from repro.core import (
    Advance,
    CheckpointError,
    Event,
    EventKind,
    FunctionComponent,
    IncrementalCheckpointStore,
    NoSuchCheckpointError,
    PortDirection,
    ProcessComponent,
    ReactiveComponent,
    Receive,
    Send,
    Simulator,
    Timestamp,
)
from repro.core.checkpoint import capture, reinstate


class Accumulator(ProcessComponent):
    def __init__(self, name):
        super().__init__(name)
        self.seen = []
        self.add_port("in", PortDirection.IN)

    def run(self):
        while True:
            t, v = yield Receive("in")
            self.seen.append((t, v))


class Ticker(ProcessComponent):
    def __init__(self, name, count=10):
        super().__init__(name)
        self.count = count
        self.add_port("out", PortDirection.OUT)

    def run(self):
        for i in range(self.count):
            yield Advance(1.0)
            yield Send("out", i)


def build():
    sim = Simulator()
    ticker = sim.add(Ticker("ticker"))
    acc = sim.add(Accumulator("acc"))
    sim.wire("n", ticker.port("out"), acc.port("in"))
    return sim, ticker, acc


class TestProcessReplayCheckpoint:
    def test_restore_rewinds_state_and_time(self):
        sim, ticker, acc = build()
        sim.run(until=3.0)
        cid = sim.checkpoint("mid")
        state_at_ckpt = list(acc.seen)
        sim.run()
        assert len(acc.seen) == 10
        sim.restore(cid)
        assert acc.seen == state_at_ckpt
        assert sim.now == 3.0
        assert acc.local_time == 3.0

    def test_reexecution_after_restore_matches_original(self):
        sim, ticker, acc = build()
        sim.run(until=4.0)
        cid = sim.checkpoint()
        sim.run()
        original = list(acc.seen)
        sim.restore(cid)
        sim.run()
        assert acc.seen == original

    def test_restore_before_any_delivery(self):
        sim, ticker, acc = build()
        cid = sim.checkpoint("start")
        sim.run()
        sim.restore(cid)
        assert acc.seen == []
        sim.run()
        assert len(acc.seen) == 10

    def test_multiple_restores_of_same_checkpoint(self):
        sim, ticker, acc = build()
        sim.run(until=5.0)
        cid = sim.checkpoint()
        for __ in range(3):
            sim.run()
            assert len(acc.seen) == 10
            sim.restore(cid)
            assert len(acc.seen) == 5

    def test_restore_unknown_id_raises(self):
        sim, *_ = build()
        with pytest.raises(NoSuchCheckpointError):
            sim.restore(999)

    def test_checkpoint_of_finished_component(self):
        sim, ticker, acc = build()
        sim.run()
        assert ticker.finished
        cid = sim.checkpoint()
        sim.restore(cid)
        assert ticker.finished
        assert acc.seen[-1] == (10.0, 9)

    def test_replay_detects_nondeterminism(self):
        import itertools
        counter = itertools.count()   # external state: NOT checkpointed

        class Fickle(ProcessComponent):
            def run(self):
                yield Advance(1.0)
                if next(counter) > 0:   # behaves differently on re-run
                    t, v = yield Receive("nope")

        sim = Simulator()
        fickle = sim.add(Fickle("fickle"))
        fickle.add_port("nope", PortDirection.IN)
        sim.run()
        cid = sim.checkpoint()
        with pytest.raises(CheckpointError):
            sim.restore(cid)


class TestReactiveCheckpoint:
    def test_reactive_state_roundtrip(self):
        class Summer(ReactiveComponent):
            def __init__(self, name):
                super().__init__(name)
                self.total = 0
                self.log = []
                self.add_port("in", PortDirection.IN)

            def on_event(self, port, time, value):
                self.total += value
                self.log.append(value)

        sim = Simulator()
        summer = sim.add(Summer("sum"))
        ticker = sim.add(Ticker("ticker", count=6))
        sim.wire("n", ticker.port("out"), summer.port("in"))
        sim.run(until=3.0)
        cid = sim.checkpoint()
        assert summer.total == 3        # 0+1+2
        sim.run()
        assert summer.total == 15
        sim.restore(cid)
        assert summer.total == 3
        assert summer.log == [0, 1, 2]
        sim.run()
        assert summer.total == 15

    def test_rng_state_restored(self):
        class Dice(ReactiveComponent):
            def __init__(self, name):
                super().__init__(name)
                self.rolls = []
                self.add_port("in", PortDirection.IN)

            def on_event(self, port, time, value):
                self.rolls.append(self.rng.randint(1, 6))

        sim = Simulator()
        dice = sim.add(Dice("dice"))
        ticker = sim.add(Ticker("ticker", count=8))
        sim.wire("n", ticker.port("out"), dice.port("in"))
        sim.run(until=4.0)
        cid = sim.checkpoint()
        sim.run()
        original = list(dice.rolls)
        sim.restore(cid)
        sim.run()
        assert dice.rolls == original

    def test_rng_draws_do_not_depend_on_the_hash_seed(self):
        """``self.rng`` is seeded from the component's name itself, not
        from ``hash(name)``, which every process salts differently."""
        script = ("from repro.core.component import Component\n"
                  "rng = Component('dice').rng\n"
                  "print([rng.randint(1, 6) for __ in range(12)])")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        draws = {subprocess.run(
            [sys.executable, "-c", script], check=True, text=True,
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        ).stdout for seed in ("1", "2")}
        assert len(draws) == 1


class TestAutoCheckpointAndStores:
    def test_auto_checkpoint_takes_periodic_images(self):
        sim, *_ = build()
        sim.auto_checkpoint(2.0)
        sim.run()
        store = sim.subsystem.checkpoints
        times = [store.image(store.latest_at_or_before(t)).time
                 for t in (2.0, 4.0, 6.0, 8.0, 10.0)]
        assert len(store) == 5 and times == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_latest_at_or_before(self):
        sim, *_ = build()
        sim.auto_checkpoint(2.0)
        sim.run()
        store = sim.subsystem.checkpoints
        cid = store.latest_at_or_before(5.0)
        assert store.image(cid).time == 4.0
        assert store.latest_at_or_before(0.5) is None

    def test_keep_last_prunes(self):
        from repro.core import CheckpointStore
        sim = Simulator(checkpoint_store=CheckpointStore(keep_last=2))
        ticker = sim.add(Ticker("ticker"))
        acc = sim.add(Accumulator("acc"))
        sim.wire("n", ticker.port("out"), acc.port("in"))
        sim.auto_checkpoint(1.0)
        sim.run()
        assert len(sim.subsystem.checkpoints) == 2

    def test_incremental_store_restores_identically(self):
        store = IncrementalCheckpointStore(full_every=3)
        sim = Simulator(checkpoint_store=store)
        ticker = sim.add(Ticker("ticker"))
        acc = sim.add(Accumulator("acc"))
        sim.wire("n", ticker.port("out"), acc.port("in"))
        cids = []
        for t in [2.0, 4.0, 6.0, 8.0]:
            sim.run(until=t)
            cids.append(sim.checkpoint())
        sim.run()
        final = list(acc.seen)
        sim.restore(cids[1])            # a delta record
        assert len(acc.seen) == 4
        sim.run()
        assert acc.seen == final
        sim.restore(cids[3])
        assert len(acc.seen) == 8

    def test_incremental_store_is_smaller_than_full(self):
        def run_with(store):
            sim = Simulator(checkpoint_store=store)
            ticker = sim.add(Ticker("ticker", count=40))
            acc = sim.add(Accumulator("acc"))
            # Give the accumulator bulky, mostly-constant state.
            acc.bulk = list(range(5000))
            sim.wire("n", ticker.port("out"), acc.port("in"))
            for t in range(2, 40, 2):
                sim.run(until=float(t))
                sim.checkpoint()
            return store.storage_bytes()

        from repro.core import CheckpointStore
        full = run_with(CheckpointStore())
        incremental = run_with(IncrementalCheckpointStore(full_every=100))
        assert incremental < full / 3

    def test_an_unpicklable_piece_is_measured_by_its_repr(self):
        """A component may hold a live object pickle rejects (a lambda
        here); the image still has a size — that piece's repr — instead
        of failing the whole measurement."""
        sim, ticker, acc = build()
        sim.run(until=3.0)
        plain = sim.subsystem.checkpoints.image(sim.checkpoint())
        acc.callback = lambda value: value
        live = sim.subsystem.checkpoints.image(sim.checkpoint())
        assert live.storage_bytes() > plain.storage_bytes() > 0

    def test_incremental_rejects_pruning(self):
        with pytest.raises(CheckpointError):
            IncrementalCheckpointStore(keep_last=3)

    @pytest.mark.parametrize("dropped", [4.0, 6.0], ids=["diff", "whole"])
    @pytest.mark.parametrize("incremental", [False, True],
                             ids=["full", "incremental"])
    def test_a_discarded_image_is_as_if_never_taken(self, incremental,
                                                    dropped):
        """``discard`` forgets the newest image (a cut a rollback
        abandoned): the store then holds, sizes and restores what a
        store that never took it does — under ``full_every=2`` the image
        at 4 is a diff and the one at 6 whole, and the next one is a diff
        or whole as if the discarded one had never been taken."""
        from repro.core import CheckpointStore

        def run_with(discard):
            store = IncrementalCheckpointStore(full_every=2) \
                if incremental else CheckpointStore()
            sim = Simulator(checkpoint_store=store)
            ticker = sim.add(Ticker("ticker"))
            acc = sim.add(Accumulator("acc"))
            sim.wire("n", ticker.port("out"), acc.port("in"))
            kept = []
            for t in (2.0, 4.0, 6.0, 8.0):
                sim.run(until=t)
                if t != dropped:
                    kept.append(sim.checkpoint())
                elif discard:
                    store.discard(sim.checkpoint())
            sim.run()
            restored = []
            for cid in kept:
                sim.restore(cid)
                restored.append((sim.now, list(acc.seen)))
            return len(store), store.storage_bytes(), restored

        assert run_with(discard=True) == run_with(discard=False)


class TestOneImage:
    """The image a store holds is the image that travels (ISSUE 24): queued
    events by name with all six fields, no live reference unless the
    target has no name.  Rows marked *fails on the parent* did so at
    6c33e8e, natively and under ``PIA_PURE=1``."""

    CAUSE = ("t", 1, 0, 2)

    def _queued_with_cause(self):
        sim, ticker, acc = build()
        sim.run(until=3.0)
        sim.subsystem.scheduler.schedule(
            Event(Timestamp(7.5), EventKind.SIGNAL, acc.port("in"),
                  payload="late", cause=self.CAUSE))
        return sim, acc

    def test_cause_survives_capture_and_reinstate(self):
        """*Fails on the parent*: both rebuilt the event from five of its
        six fields, so a restore forgot why its events were queued."""
        sim, acc = self._queued_with_cause()
        before = [(e.ts, e.kind, e.target, e.payload, e.token, e.cause)
                  for e in sim.subsystem.scheduler.queue.snapshot()]
        assert self.CAUSE in [row[5] for row in before]
        image = capture(sim.subsystem, 1)
        assert [entry[5] for entry in image.events] == \
            [row[5] for row in before]
        sim.run()
        reinstate(sim.subsystem, image)
        after = [(e.ts, e.kind, e.target, e.payload, e.token, e.cause)
                 for e in sim.subsystem.scheduler.queue.snapshot()]
        assert after == before

    def test_targets_are_kept_by_name(self):
        sim, acc = self._queued_with_cause()
        sim.subsystem.scheduler.schedule(
            Event(Timestamp(30.0), EventKind.WAKE,
                  sim.subsystem.component("ticker"), token=99))
        image = capture(sim.subsystem, 1)
        assert image.subsystem == sim.subsystem.name
        assert ("port", "acc", "in") in [entry[2] for entry in image.events]
        assert ("component", "ticker") in [entry[2] for entry in image.events]
        assert image.unnamed_targets() == []

    def test_pickled_image_resumes_in_a_freshly_built_subsystem(self):
        """*Fails on the parent* (an image held live ports and components,
        and a generator-backed component does not pickle)."""
        sim, ticker, acc = build()
        sim.run(until=3.0)
        clone = pickle.loads(pickle.dumps(capture(sim.subsystem, 1, "cut")))
        fresh, __, fresh_acc = build()
        reinstate(fresh.subsystem, clone)
        assert fresh.now == 3.0 and fresh_acc.seen == acc.seen
        fresh.run()
        sim.run()
        assert fresh_acc.seen == acc.seen and len(acc.seen) == 10
        assert fresh.now == sim.now
        assert fresh.subsystem.scheduler.dispatched == \
            sim.subsystem.scheduler.dispatched

    def test_control_event_stays_live_and_restores_in_process(self):
        sim, ticker, acc = build()
        sim.auto_checkpoint(2.0)
        sim.run(until=3.0)
        cid = sim.checkpoint("mid")
        image = sim.subsystem.checkpoints.image(cid)
        assert [kind for kind, __ in image.unnamed_targets()] == \
            [EventKind.CONTROL]
        sim.run()
        final = list(acc.seen)
        sim.restore(cid)
        assert sim.now == 3.0
        sim.run()
        assert acc.seen == final
        store = sim.subsystem.checkpoints
        # The re-armed tick kept checkpointing after the restore.
        assert store.image(store.latest()).time == 10.0

    def test_orphan_port_stays_live(self):
        from repro.core.port import Port
        sim, ticker, acc = build()
        sim.run(until=3.0)
        orphan = Port("loose", PortDirection.IN)
        sim.subsystem.scheduler.schedule(
            Event(Timestamp(20.0), EventKind.SIGNAL, orphan, payload=1))
        image = capture(sim.subsystem, 1)
        assert image.unnamed_targets() == [(EventKind.SIGNAL, orphan)]
        reinstate(sim.subsystem, image)
        assert sim.subsystem.scheduler.queue.snapshot()[-1].target is orphan

    def test_wrong_subsystem_refused(self):
        sim, *_ = build()
        sim.run(until=2.0)
        image = capture(sim.subsystem, 1)
        other = Simulator(name="elsewhere")
        with pytest.raises(CheckpointError, match="elsewhere"):
            reinstate(other.subsystem, image)

    def test_unknown_component_and_port_refused_before_any_overwrite(self):
        sim, ticker, acc = build()
        sim.run(until=2.0)
        image = capture(sim.subsystem, 1)
        sim.run(until=5.0)
        seen = list(acc.seen)
        for bad, named in [(("component", "ghost"), "ghost"),
                           (("port", "ghost", "in"), "ghost"),
                           (("port", "acc", "nowhere"), "acc.nowhere")]:
            broken = pickle.loads(pickle.dumps(image))
            ts, kind, __, payload, token, cause = broken.events[0]
            broken.events[0] = (ts, kind, bad, payload, token, cause)
            with pytest.raises(CheckpointError, match=named):
                reinstate(sim.subsystem, broken)
            assert sim.now == 5.0 and acc.seen == seen
        broken = pickle.loads(pickle.dumps(image))
        broken.components["ghost"] = broken.components["acc"]
        with pytest.raises(CheckpointError, match="ghost"):
            reinstate(sim.subsystem, broken)

    @pytest.mark.parametrize("full_every", [1, 4, 1000])
    def test_incremental_chains_restore_like_the_full_store(self, full_every):
        def run_with(store):
            sim = Simulator(checkpoint_store=store)
            ticker = sim.add(Ticker("ticker"))
            acc = sim.add(Accumulator("acc"))
            sim.wire("n", ticker.port("out"), acc.port("in"))
            cids = []
            for t in [1.0, 2.5, 4.0, 5.5, 7.0, 8.5]:
                sim.run(until=t)
                cids.append(sim.checkpoint())
            sim.run()
            states = []
            for cid in cids:
                sim.restore(cid)
                image = store.image(cid)
                states.append((sim.now, list(acc.seen), image.events,
                               image.subsystem,
                               sim.subsystem.scheduler.dispatched))
                sim.run()
                states.append((sim.now, list(acc.seen)))
            return states

        from repro.core import CheckpointStore
        assert run_with(IncrementalCheckpointStore(full_every=full_every)) \
            == run_with(CheckpointStore())
