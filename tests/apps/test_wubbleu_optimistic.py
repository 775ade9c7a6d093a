"""Why optimism never rolls back on the split word page.

Table 1's remote word row over optimistic channels is the paper's row: no
safe-time protocol, one wire message per word.  It never rolls back, and
the reason is the page load's shape, not luck in the visit order: the
handheld sends its request words and then has nothing to run until the
cellsite answers, so its clock waits behind every reply it will receive —
whichever node a round steps first.  A straggler needs a receiver that
ran past the stamp of a message still on its way, and neither side ever
does.  (DESIGN.md §5, "Optimism never rolls back on the split page".)

The full page, as in the bench: 1.493117 s of virtual time, the instant
every conservative row reaches too.
"""

import pytest

from repro.apps import WubbleUConfig, build_split, run_page_load
from repro.distributed import ChannelMode, CoSimulation
from repro.transport import INTERNET

#: Virtual completion of the full word page on every Table 1 row.
PAGE_LOADED_AT = 1.493117


def optimistic_split(batching=False):
    return build_split(WubbleUConfig(level="word"), network=INTERNET,
                       mode=ChannelMode.OPTIMISTIC, batching=batching)[0]


@pytest.mark.parametrize("batching", [False, True],
                         ids=["unbatched", "batched"])
def test_no_rollback_and_the_conservative_instant(batching):
    cosim = optimistic_split(batching)
    result = run_page_load(cosim, location="remote", level="word")
    assert cosim.recovery.rollbacks == []
    assert result.virtual_time == pytest.approx(PAGE_LOADED_AT, abs=1e-6)
    # One wire message per word crossing, no protocol traffic.
    assert result.messages < 1.1 * result.bytes_loaded / 4


def test_the_visit_order_does_not_decide_it(monkeypatch):
    """Step the nodes in the opposite order: still no straggler."""
    order = CoSimulation._ordered_nodes
    monkeypatch.setattr(CoSimulation, "_ordered_nodes",
                        lambda cosim: order(cosim)[::-1])
    cosim = optimistic_split()
    assert [node.name for node in cosim._ordered_nodes()] \
        == ["host-a", "host-b"]     # handheld first; the default is reversed
    result = run_page_load(cosim, location="remote", level="word")
    assert cosim.recovery.rollbacks == []
    assert result.virtual_time == pytest.approx(PAGE_LOADED_AT, abs=1e-6)


@pytest.mark.parametrize("until", [0.01, 0.03, 0.06])
def test_a_forced_rollback_lands_on_the_same_instant(until):
    """Cut at ``until``, run on, roll back through ``rollback_to``: the
    page still completes at the same instant.  At the cut the handheld
    waits with nothing to run, behind the cellsite's clock."""
    cosim = optimistic_split()
    cosim.run(until=until)
    snap = cosim.registry.snapshots[cosim.snapshot()]
    handheld, cellsite = cosim.subsystem("handheld"), cosim.subsystem(
        "cellsite")
    assert handheld.next_event_time() == float("inf")
    assert handheld.now < cellsite.now
    cosim.run(until=until + 0.1)
    cosim.recovery.rollback_to(snap)
    assert cellsite.now == snap.max_time() < until + 0.1
    cosim.run()
    assert cosim.recovery.rollbacks == []
    assert cosim.component("UI").page_loaded_at \
        == pytest.approx(PAGE_LOADED_AT, abs=1e-6)
