"""The lit path's price, as an exact count.

A default ``Telemetry()`` run is the everyday run, so what it adds to a
``telemetry.disable()``d one is budgeted here — not in seconds (no test
on a shared host can hold a wall-clock threshold) but in Python-visible
calls: ``sys.setprofile`` ``call`` + ``c_call`` events of one lit run
minus one dark run of the same model, per dispatched event.  The count
is a pure function of the code, so it is the same on every host and a
regression names the model it hit.

Budgets sit 25% above what the tree measured when they were set
(native / ``PIA_PURE=1``; the figures are beside ``BUDGETS`` below).  If a
change moves a count on purpose, re-measure with
``python tests/observability/test_lit_budget.py`` and move the budget
with it; ``observability.telemetry.overhead_ratio`` in the perf ledger is
the wall-clock view of the same cost.
"""

import gc
import sys

import pytest

from repro.apps.wubbleu import WubbleUConfig, build_local
from repro.bench.workloads import streaming_pair, streaming_pair_spec
from repro.core import events
from repro.core.port import PortDirection
from repro.distributed import build

PURE = events.Event is events.PythonEvent


def local_word():
    """One subsystem, no channel: no dispatch has a cause, so a lit run
    files no record at all."""
    return build_local(WubbleUConfig(
        level="word", seed=1, page_loads=1, total_bytes=800,
        image_count=1, image_size=8))[0]


def one_way_pair():
    """Unbatched producer -> consumer: dispatch + send + receive records,
    span context, six link counters per frame."""
    return streaming_pair(100, 1.0)


def two_way_batched_pair():
    """The same pair with a consumer end that could drive, batched: the
    safe-time protocol runs, so stalls, piggybacked grants and the
    batch-frame accounting are on the path too."""
    cosim = build(streaming_pair_spec(100, 1.0), batching=True)
    cosim.component("consumer").port("in").direction = PortDirection.INOUT
    return cosim


#: model -> (budget native, budget pure), in extra calls per dispatched
#: event: 1.25x what the tree measured when they were last recorded
#: (the local word floored at 0.25).  The one-way pair reads 7.46 native
#: and 7.96 pure, the two-way batched pair 11.30 and 11.80, since the
#: per-event records are filed as their facts and a received signal's
#: span goes to ``inject`` as an argument (the cause cell is no longer
#: written around it); 8.99 / 9.49 and 12.31 / 12.81 before, budgeted at
#: 11.2 / 11.9 and 15.4 / 16.0.  The two-way batched pair read
#: 12.31 native and 12.81 pure since a grant's receipt files no record
#: and the round reads the answers it keeps; 18.36 and 18.86 before.
#: The one-way pair read 8.99 native and 9.49 pure since the send
#: pipeline files its own message records and mints a span in one call,
#: and link counters ride on the link's row; 11.57 and 12.07 before.
#: The local word's row was set at 0.05 native and pure (the two-way
#: pair read 22.89 / 23.39 then), once a message's trace context became
#: its ordinal and its parent's span.  The rows read 0.05 / 12.57 / 23.89 and 0.05 /
#: 17.57 / 28.89 with the four-field context, once a dispatch filed a
#: DISPATCH record only when it had a cause; 4.05 / 14.57 / 25.89 and
#: 4.05 / 19.57 / 30.89 before that (every record a tuple built by one C
#: call, the in-process carrier no longer decoding its own encode); 7.05 /
#: 20.10 / 31.89 and 8.05 / 29.10 / 37.89 before those; 17.0 / 45.9 /
#: 80.5 and 18.0 / 55.4 / 87.0 before the lit path was first flattened.
BUDGETS = {
    local_word: (0.25, 0.25),
    one_way_pair: (9.3, 10.0),
    two_way_batched_pair: (14.1, 14.8),
}


def profiled_calls(cosim, *, lit):
    """``(call + c_call events, events dispatched)`` of one run."""
    if not lit:
        cosim.telemetry.disable()
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    # A collection inside the profiled run would add whatever finalizers
    # the rest of the suite left behind to the count.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        cosim.run()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    dispatched = sum(subsystem.scheduler.dispatched
                     for subsystem in cosim.subsystems.values())
    return calls, dispatched


def lit_cost(model):
    """Extra calls per dispatched event of a lit run of ``model``."""
    model().run()       # first-use work (lazy imports, caches) is neither's
    lit_calls, lit_events = profiled_calls(model(), lit=True)
    dark_calls, dark_events = profiled_calls(model(), lit=False)
    assert lit_events == dark_events > 0
    return (lit_calls - dark_calls) / lit_events


@pytest.mark.parametrize("model", list(BUDGETS), ids=lambda m: m.__name__)
def test_lit_run_stays_inside_its_call_budget(model):
    budget = BUDGETS[model][PURE]
    cost = lit_cost(model)
    assert cost <= budget, (
        f"{model.__name__}: a lit run makes {cost:.1f} more calls per "
        f"event than a dark one (budget {budget}) — something on the "
        "per-event or per-message telemetry path got more expensive")


def test_the_count_repeats_exactly():
    """What makes a call count a usable gate: it does not vary."""
    assert lit_cost(one_way_pair) == lit_cost(one_way_pair)


if __name__ == "__main__":
    for model in BUDGETS:
        print(f"{model.__name__:22s} {'pure' if PURE else 'native'} "
              f"{lit_cost(model):6.2f} calls/event")
