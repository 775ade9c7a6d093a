"""The headline row asks each question once, as exact counts.

A round of the batched remote word asks the same few questions again
and again: how far may this subsystem run (its horizon), does this node
have anything to poll (readiness), is anything queued for a flush, when
is this subsystem's next event, what does it grant its peer.  Each
answer is kept as a value and updated where it changes (DESIGN.md §5,
"Kept answers"), so reading it is not asking it.  What is budgeted here,
per crossing message of ``test_round_budget.remote_word``, is each
question *evaluated*, counted through wrappers:

* horizon — :meth:`SafeTimeClient._walk`, the walk over a subsystem's
  ends (a site that moves a subsystem's one end stores that end's new
  horizon: the upkeep of the kept value, not a walk);
* readiness — a look into a node's inbox (the carrier's ``_inbox``)
  other than by the poll that drains it;
* queued — ``SendBatcher.pending``, the one batcher method left that
  answers "what is queued" (the round reads the ``queues`` table; the
  tree before asked ``SendBatcher.queued``);
* next-event time — ``Scheduler.next_event_time``, which
  ``Subsystem.next_event_time`` wraps in turn: two frames over the
  queue head, whose ``next_time`` the round reads directly;
* ``compute_grant`` — a grant computed afresh.

The tree before the answers were kept evaluated them 9.2 / 8.5 / 10.6 /
9.4 / 3.1 times per crossing message; this one 0.00 / 0.01 / 0.00 /
0.01 / 1.00.  Every budget is 2.
"""

import sys

import pytest

from repro.core.scheduler import Scheduler
from repro.distributed import conservative
from repro.distributed.channel import ChannelEndpoint
from repro.distributed.conservative import SafeTimeClient
from repro.transport.batch import SendBatcher
from repro.transport.inmemory import InMemoryTransport
from repro.transport.pipeline import Transport

from tests.distributed.test_round_budget import remote_word

BUDGET = 2.0


def evaluations(monkeypatch):
    """Run ``remote_word`` counting each question's evaluations; returns
    ``({question: count}, crossing messages)``."""
    remote_word().run()     # first-use work is no round's
    counts = dict.fromkeys(("horizon", "readiness", "queued",
                            "next_time", "compute_grant", "crossing"), 0)

    def counting(question, function, when=lambda: True):
        def wrapper(*args, **kwargs):
            if when():
                counts[question] += 1
            return function(*args, **kwargs)
        return wrapper

    def outside_poll():
        return sys._getframe(2).f_code is not Transport.poll.__code__

    monkeypatch.setattr(SafeTimeClient, "_walk",
                        counting("horizon", SafeTimeClient._walk))
    monkeypatch.setattr(InMemoryTransport, "_inbox", counting(
        "readiness", InMemoryTransport._inbox, outside_poll))
    monkeypatch.setattr(SendBatcher, "pending", counting(
        "queued", SendBatcher.pending))
    monkeypatch.setattr(Scheduler, "next_event_time", counting(
        "next_time", Scheduler.next_event_time))
    monkeypatch.setattr(conservative, "compute_grant", counting(
        "compute_grant", conservative.compute_grant))
    monkeypatch.setattr(ChannelEndpoint, "forward", counting(
        "crossing", ChannelEndpoint.forward))
    remote_word().run()
    crossing = counts.pop("crossing")
    assert crossing > 0
    return counts, crossing


@pytest.fixture(scope="module")
def measured():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return evaluations(monkeypatch)


@pytest.mark.parametrize("question", ["horizon", "readiness", "queued",
                                      "next_time", "compute_grant"])
def test_each_question_is_asked_once_a_crossing(measured, question):
    counts, crossing = measured
    cost = counts[question] / crossing
    assert cost <= BUDGET, (
        f"{question} is evaluated {cost:.2f} times per crossing message "
        f"(budget {BUDGET}) — a reader recomputes an answer the round "
        "keeps, or a site marks it stale more often than it changes")


def test_the_count_repeats_exactly(measured):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert evaluations(monkeypatch) == measured


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        counts, crossing = evaluations(patch)
    for question, count in counts.items():
        print(f"{question:14s} {count / crossing:6.2f} per crossing message")
