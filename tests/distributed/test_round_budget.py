"""A round visits only work, as exact counts.

The cooperative executor asks the send pipeline who is ready
(``Transport.ready``) before it pumps anyone, ``poll`` flushes only a
queue that exists, and the round boundary flushes only when something is
queued.  What that buys is budgeted here the way the lit path is in
``tests/observability/test_lit_budget.py``: not in seconds but in counts
that are a pure function of the code — pumps, polls and flushes counted
through wrappers, and Python-visible calls (``sys.setprofile`` ``call`` +
``c_call`` events) per executor round.

Call budgets sit 25% above what the tree measured when they were set
(native / ``PIA_PURE=1``; the figures are beside ``BUDGETS``).  The tree
before the work-driven round fails the split WubbleU's call budget and
both models' pump and flush ratios.  If a change moves a count on
purpose, re-measure with ``python -m tests.distributed.test_round_budget``
and move the budget with it.
"""

import pytest

from repro.apps.wubbleu import WubbleUConfig, build_split
from repro.bench.workloads import streaming_pair
from repro.core import events
from repro.distributed.node import PiaNode
from repro.transport import InMemoryTransport
from repro.transport.latency import INTERNET
from tests.observability.test_lit_budget import profiled_calls

PURE = events.Event is events.PythonEvent


def remote_word():
    """The ledger's ``wubbleu_remote_word`` at its check size: two nodes,
    a two-way link, batched — grants piggybacked and pushed, a stall
    every other event."""
    return build_split(WubbleUConfig(
        level="word", seed=1, page_loads=1, total_bytes=800,
        image_count=1, image_size=8), network=INTERNET, batching=True)[0]


def one_way_pair():
    """Unbatched producer -> consumer: three rounds, windows of events."""
    return streaming_pair(100, 1.0)


#: model -> (budget native, budget pure), in Python-visible calls per
#: executor round: 1.25x what the tree measured when they were set —
#: 294.4 / 3,509.0 native, 450.5 / 5,499.0 pure, once the round kept
#: its answers (horizons, readiness, grant floors) as values updated
#: where they change, instead of asking them again at every visit.
#: Before that they read 392.6 / 3,588.0 native, 548.8 / 5,578.0 pure
#: (one charge body, self-filed records, the endpoint map); 430.1 /
#: 4,526.7 and 583.4 / 6,416.7 before those; and the work-driven round
#: took the split WubbleU from 668.1 / 831.4 to 465.4 / 628.7.
BUDGETS = {
    remote_word: (368, 563),
    one_way_pair: (4_386, 6_874),
}


def visits(cosim, monkeypatch):
    """Run ``cosim`` counting what each pump, poll and flush moved:
    ``{"pump": [...], "poll": [...], "flush": [...]}``, one entry per
    call."""
    moved = {"pump": [], "poll": [], "flush": []}

    def counting(name, function, measure):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            moved[name].append(measure(result))
            return result
        return wrapper

    monkeypatch.setattr(PiaNode, "pump",
                        counting("pump", PiaNode.pump, int))
    monkeypatch.setattr(InMemoryTransport, "poll",
                        counting("poll", InMemoryTransport.poll, len))
    monkeypatch.setattr(
        InMemoryTransport, "flush_batches",
        counting("flush", InMemoryTransport.flush_batches, int))
    cosim.run()
    return moved


def calls_per_round(model):
    """Python-visible calls of one run of ``model`` per executor round
    (warm-up run and GC fencing as in the lit budget)."""
    model().run()       # first-use work (lazy imports, caches) is no round's
    cosim = model()
    calls, __ = profiled_calls(cosim, lit=True)
    assert cosim.rounds > 0
    return calls / cosim.rounds


@pytest.mark.parametrize("model", list(BUDGETS), ids=lambda m: m.__name__)
def test_every_pump_drains_and_half_the_flushes_ship(model, monkeypatch):
    moved = visits(model(), monkeypatch)
    assert moved["pump"] and moved["pump"] == moved["poll"]
    assert min(moved["pump"]) >= 1, (
        f"{model.__name__}: {moved['pump'].count(0)} of "
        f"{len(moved['pump'])} pumps found nothing — a sweep visited a "
        "node the transport did not name ready")
    useful = sum(1 for count in moved["flush"] if count)
    assert 2 * useful >= len(moved["flush"]), (
        f"{model.__name__}: {useful} of {len(moved['flush'])} flushes "
        "shipped anything")


@pytest.mark.parametrize("model", list(BUDGETS), ids=lambda m: m.__name__)
def test_a_round_stays_inside_its_call_budget(model):
    budget = BUDGETS[model][PURE]
    cost = calls_per_round(model)
    assert cost <= budget, (
        f"{model.__name__}: {cost:.1f} calls per round (budget {budget}) "
        "— the round loop, the ready test or the per-visit safe-time "
        "path got more expensive")


def test_the_count_repeats_exactly():
    assert calls_per_round(remote_word) == calls_per_round(remote_word)


if __name__ == "__main__":
    for model in BUDGETS:
        print(f"{model.__name__:14s} {'pure' if PURE else 'native'} "
              f"{calls_per_round(model):9.1f} calls/round")
