"""The in-subsystem word path's price, as an exact count.

Every word a component passes to another inside one subsystem crosses
component → interface → port → net → scheduler → port → component (paper
section 2.1), and what the kernel spends around the model code on that
trip is Python-visible calls: ``sys.setprofile`` ``call`` + ``c_call``
events per dispatched event of one whole run, lit (default telemetry) and
dark.  The count is a pure function of the code — the same on every host,
the same on every run — so it is budgeted exactly where a wall-clock
threshold could not be held.

The model is ``test_lit_budget.local_word`` (WubbleU at word level, one
subsystem, no channel).  Budgets sit 10% above what the tree measured
when they were set (the figures are beside ``BUDGETS``); the tree
before that measured 32.72 / 25.67 native and 44.73 / 36.67 under
``PIA_PURE=1`` and fails both lit budgets (47.30 / 40.24 and 56.31 /
48.25 before the word path was flattened).  If a change moves a count on
purpose, re-measure with ``python tests/core/test_word_path_budget.py``
and move the budget with it.
"""

import pytest

from tests.observability.test_lit_budget import (
    PURE,
    local_word,
    profiled_calls,
)

#: lit? -> (budget native, budget pure), calls per dispatched event:
#: 1.1x the measured 24.72 / 24.67 native, 35.73 / 35.67 pure — no
#: DISPATCH record for a dispatch without a cause (lit 28.72 / 39.73
#: while every dispatch filed one), no switchpoint poll before a
#: switchpoint exists.
BUDGETS = {
    True: (27.2, 39.3),
    False: (27.1, 39.2),
}


def calls_per_event(*, lit):
    local_word().run()      # first-use work (lazy imports, caches)
    calls, events = profiled_calls(local_word(), lit=lit)
    assert events > 0
    return calls / events


@pytest.mark.parametrize("lit", [True, False], ids=["lit", "dark"])
def test_word_path_stays_inside_its_call_budget(lit):
    budget = BUDGETS[lit][PURE]
    cost = calls_per_event(lit=lit)
    assert cost <= budget, (
        f"a {'lit' if lit else 'dark'} local-word run makes {cost:.2f} "
        f"calls per event (budget {budget}) — something on the path a "
        "word takes through a subsystem got more expensive")


def test_the_count_repeats_exactly():
    assert calls_per_event(lit=True) == calls_per_event(lit=True)


if __name__ == "__main__":
    for lit in (True, False):
        print(f"local_word {'pure' if PURE else 'native'} "
              f"{'lit ' if lit else 'dark'} "
              f"{calls_per_event(lit=lit):6.2f} calls/event")
