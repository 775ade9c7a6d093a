"""Fig. 4 — the safe-time protocol among three subsystems.

"If SS1 is ready to advance its own subsystem time it must first get safe
times from both SS2 and SS3.  Once it has these, it must compare these to
the time value of the next event it has scheduled."

This bench reproduces the figure: SS1 holds components with local events
and conservative channels to SS2 and SS3.  We count safe-time requests per
subsystem-time advance, verify the grants observe self-restriction removal
(an idle peer grants infinity rather than deadlocking), and that SS1 never
advances past an ungranted horizon.
"""

import pytest

from repro.bench import Table, format_count
from repro.core import Advance, FunctionComponent, Receive, Send, WaitUntil
from repro.distributed import CoSimulation, compute_grant
from repro.distributed.conservative import UNBOUNDED


def _build(events_in_ss1=10, batching=False):
    cosim = CoSimulation(batching=batching)
    ss1 = cosim.add_subsystem(cosim.add_node("n1"), "ss1")
    ss2 = cosim.add_subsystem(cosim.add_node("n2"), "ss2")
    ss3 = cosim.add_subsystem(cosim.add_node("n3"), "ss3")

    def stepper(comp):
        for __ in range(events_in_ss1):
            yield WaitUntil(comp.local_time + 1.0)
            yield Send("to2", comp.local_time)
            yield Send("to3", comp.local_time)

    def echo(comp):
        comp.seen = 0
        while True:
            t, v = yield Receive("in")
            comp.seen += 1
            yield Advance(0.1)
            yield Send("back", v)

    def collect(comp):
        while True:
            yield Receive("back")

    c12 = FunctionComponent("c12", stepper,
                            ports={"to2": "out", "to3": "out"})
    c4a = FunctionComponent("c4a", collect, ports={"back": "in"})
    c4b = FunctionComponent("c4b", collect, ports={"back": "in"})
    e2 = FunctionComponent("e2", echo, ports={"in": "in", "back": "out"})
    e3 = FunctionComponent("e3", echo, ports={"in": "in", "back": "out"})
    ss1.add(c12)
    ss1.add(c4a)
    ss1.add(c4b)
    ss2.add(e2)
    ss3.add(e3)

    ch2 = cosim.connect(ss1, ss2)
    ch3 = cosim.connect(ss1, ss3)
    ch2.split_net(ss1.wire("f2", c12.port("to2")),
                  ss2.wire("f2", e2.port("in")))
    ch3.split_net(ss1.wire("f3", c12.port("to3")),
                  ss3.wire("f3", e3.port("in")))
    ch2.split_net(ss2.wire("ret2", e2.port("back")),
                  ss1.wire("ret2", c4a.port("back")))
    ch3.split_net(ss3.wire("ret3", e3.port("back")),
                  ss1.wire("ret3", c4b.port("back")))
    return cosim, ss1, ss2, ss3, ch3


@pytest.fixture(scope="module")
def fig4():
    cosim, ss1, ss2, ss3, ch3 = _build()
    # wire the ss3 return separately (ret net already attached to ch2 on
    # the ss1 side; ss3's echo uses its own net)
    cosim.run()
    return cosim, ss1, ss2, ss3


def test_fig4_report(fig4):
    cosim, ss1, ss2, ss3 = fig4
    report = cosim.report(title="fig4-safe-time")
    table = Table("Fig. 4 — safe-time requests among three subsystems",
                  ["subsystem", "events dispatched", "safe-time reqs sent",
                   "stalls", "final time"])
    for row in report.subsystems:
        table.add(row["name"],
                  format_count(row["dispatched"]),
                  format_count(row["safe_time_requests"]),
                  format_count(row["stalls"]),
                  f"t={row['time']:g}")
    total = report.counter("safetime.requests")
    events = report.counter("scheduler.dispatched")
    table.note(f"{total} requests for {events} events "
               f"({total / max(events, 1):.2f} requests/event) — "
               "statistics sourced from repro.observability RunReport")
    table.show()
    table.save("fig4_safe_time")


def test_report_totals_match_legacy_accessors(fig4):
    """The telemetry counters agree with the pre-existing ad-hoc tallies
    (which remain for API compatibility)."""
    cosim, ss1, ss2, ss3 = fig4
    report = cosim.report()
    assert report.counter("safetime.requests") == cosim.safe_time_requests()
    assert report.counter("scheduler.stalls") == cosim.stalls()
    assert report.counter("scheduler.dispatched") == \
        sum(ss.scheduler.dispatched for ss in (ss1, ss2, ss3))


def test_ss1_consults_both_peers(fig4):
    cosim, ss1, __, ___ = fig4
    requests = {ep.peer_subsystem: ep.safe_time_requests
                for ep in ss1.channels.values()}
    assert requests.get("ss2", 0) > 0
    assert requests.get("ss3", 0) > 0


def test_idle_peer_grants_unbounded(fig4):
    """Self-restriction removal: once everything is quiet, a peer's grant
    (ignoring the requester's own restriction) is unbounded — this is the
    rule that prevents the two-subsystem deadlock."""
    cosim, ss1, ss2, __ = fig4
    grant = compute_grant(ss2, "ss1")
    assert grant == UNBOUNDED


def test_echoes_happened(fig4):
    cosim, __, ss2, ss3 = fig4
    assert ss2.components["e2"].seen == 10
    assert ss3.components["e3"].seen == 10


def test_batching_comparison(fig4_batching):
    """ISSUE 3's acceptance bar on this figure: batching on must send at
    least 2x fewer transport frames and no more safe-time requests, while
    leaving the simulation itself bit-identical."""
    base, batched = fig4_batching

    def progress(report):
        return sorted((row["name"], row["time"], row["dispatched"])
                      for row in report.subsystems)

    assert progress(batched.report) == progress(base.report)
    assert batched.frames * 2 <= base.frames
    assert batched.requests <= base.requests


@pytest.fixture(scope="module")
def fig4_batching():
    class Run:
        def __init__(self, batching):
            cosim, *_ = _build(batching=batching)
            cosim.run()
            self.report = cosim.report(title=f"fig4 batching={batching}")
            totals = self.report.link_totals()
            self.frames = totals["frames"]
            self.bytes = totals["bytes"]
            self.requests = self.report.counter("safetime.requests")

    return Run(False), Run(True)


def test_batching_comparison_report(fig4_batching):
    base, batched = fig4_batching
    table = Table("Fig. 4 — batched fast path vs. per-message frames",
                  ["config", "frames", "bytes", "safe-time reqs",
                   "grants pushed"])
    for label, run in (("batching off", base), ("batching on", batched)):
        table.add(label, format_count(run.frames), format_count(run.bytes),
                  format_count(run.requests),
                  format_count(run.report.counter("safetime.pushed")))
    table.note(f"frame ratio: {base.frames / batched.frames:.2f}x "
               "(acceptance bar: >= 2x, identical simulation state)")
    table.show()
    table.save("fig4_batching")


def test_benchmark_safe_time_round(benchmark):
    def once():
        cosim, *_ = _build(events_in_ss1=5)
        cosim.run()
        return cosim.safe_time_requests()

    assert benchmark.pedantic(once, rounds=3, iterations=1) > 0
