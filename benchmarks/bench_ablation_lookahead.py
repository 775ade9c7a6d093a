"""Ablation A7 — channel delay as lookahead.

A channel's virtual delay is also the safe-time protocol's *lookahead*:
every grant gets the delay added on top of the peer's floor (paper
2.2.2.1: the reported time plus the channel crossing).  The classic
conservative-PDES result is that lookahead buys parallelism: the more of
it, the fewer safe-time consultations per event.  This sweep measures
exactly that on a fixed ping-pong workload — requests per message and
events per ``Subsystem.run`` call, the two numbers the perf ledger tracks
(``distributed.conservative.requests_per_msg``,
``core.scheduler.events_per_run_call``), not only stalls.

The last row is the limit case: the same sender with the return net
removed.  An end that cannot drive never sends, which is *infinite*
lookahead that needs no delay at all (DESIGN.md section 5, "Directed safe
time") — one request, one window.
"""

import pytest

from repro.bench import Table, format_count
from repro.core import Advance, FunctionComponent, Receive, Send
from repro.distributed import CoSimulation

ROUNDS = 20
DELAYS = [0.0, 0.05, 0.25, 1.0]
ONE_WAY = "one-way"


def _run(delay, *, reply=True):
    cosim = CoSimulation()
    ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
    ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")

    def ping(comp):
        # Sends, then keeps doing fine-grained local work while the reply
        # is in flight: exactly the shape where lookahead lets the local
        # steps run without re-consulting the peer.
        from repro.core import WaitUntil
        comp.times = []
        for index in range(ROUNDS):
            yield Advance(1.0)
            yield Send("tx", index)
            for __ in range(4):
                yield WaitUntil(comp.local_time + 0.05)
            if reply:
                t, v = yield Receive("rx")
                comp.times.append(t)

    def pong(comp):
        comp.seen = 0
        while True:
            t, v = yield Receive("rx")
            comp.seen += 1
            if reply:
                yield Advance(0.25)
                yield Send("tx", v)

    both = {"tx": "out", "rx": "in"}
    a = FunctionComponent("ping", ping,
                          ports=both if reply else {"tx": "out"})
    b = FunctionComponent("pong", pong,
                          ports=both if reply else {"rx": "in"})
    ss_a.add(a)
    ss_b.add(b)
    channel = cosim.connect(ss_a, ss_b, delay=delay)
    channel.split_net(ss_a.wire("f", a.port("tx")),
                      ss_b.wire("f", b.port("rx")))
    if reply:
        channel.split_net(ss_b.wire("r", b.port("tx")),
                          ss_a.wire("r", a.port("rx")))
    run_calls = []
    for subsystem in cosim.subsystems.values():
        def counted(*args, _run=subsystem.run, **kwargs):
            run_calls.append(1)
            return _run(*args, **kwargs)
        subsystem.run = counted
    cosim.run()
    assert b.seen == ROUNDS
    assert len(a.times) == (ROUNDS if reply else 0)
    events = sum(ss.scheduler.dispatched for ss in cosim.subsystems.values())
    requests = cosim.safe_time_requests()
    return {
        "safe_time": requests,
        "stalls": cosim.stalls(),
        "events": events,
        "run_calls": len(run_calls),
        "messages": cosim.transport.accounting.total_messages - 2 * requests,
        "round_trip": a.times[0] if reply else None,
    }


@pytest.fixture(scope="module")
def ablation():
    rows = {delay: _run(delay) for delay in DELAYS}
    rows[ONE_WAY] = _run(0.0, reply=False)
    return rows


def test_ablation_report(ablation):
    table = Table("A7 — channel delay as conservative lookahead",
                  ["channel delay", "safe-time reqs", "reqs/msg",
                   "events/run call", "stalls", "first round trip"])
    for delay, row in ablation.items():
        table.add(f"{delay:g}" if delay != ONE_WAY else "0, no return net",
                  format_count(row["safe_time"]),
                  f"{row['safe_time'] / row['messages']:.2f}",
                  f"{row['events'] / row['run_calls']:.1f}",
                  format_count(row["stalls"]),
                  f"t={row['round_trip']:g}" if delay != ONE_WAY else "n/a")
    table.note("more lookahead => fewer consultations; the virtual round "
               "trip grows by 2x the delay, the classic PDES trade")
    table.note("an end that cannot drive is infinite lookahead for free: "
               "the sender learns it from its first grant and runs in one "
               "window")
    table.show()
    table.save("ablation_lookahead")


def test_lookahead_reduces_safe_time_traffic(ablation):
    assert ablation[1.0]["safe_time"] < ablation[0.0]["safe_time"]
    # ...and the limit case beats any finite delay.
    one_way, best = ablation[ONE_WAY], ablation[DELAYS[-1]]
    assert one_way["messages"] == ROUNDS
    assert one_way["safe_time"] <= 2 < best["safe_time"]
    assert one_way["stalls"] == 0
    assert one_way["events"] / one_way["run_calls"] \
        > 10 * best["events"] / best["run_calls"]


def test_monotone_improvement(ablation):
    requests = [ablation[d]["safe_time"] for d in DELAYS]
    assert all(b <= a for a, b in zip(requests, requests[1:]))


def test_delay_shows_up_in_virtual_time(ablation):
    # reply lands at 1.0 compute + delay + 0.25 echo + delay, but the
    # ping side consumes it no earlier than its local work (1.0 + 0.2)
    for delay in DELAYS:
        assert ablation[delay]["round_trip"] == \
            pytest.approx(max(1.25 + 2 * delay, 1.2))


def test_benchmark_zero_vs_full_lookahead(benchmark):
    benchmark.pedantic(lambda: (_run(0.0), _run(1.0)),
                       rounds=1, iterations=1)
