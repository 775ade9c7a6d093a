#!/usr/bin/env python3
"""Chaos experiment: a lossy Internet link and a mid-run node crash.

A producer on one node streams readings to a consumer on another while a
seeded :class:`FaultPlan` drops, duplicates and delays the traffic — and
then kills the consumer's node outright.  The resilience layer retries
the drops, deduplicates at the poll boundary, releases the delays, and
recovers the crashed node from the last Chandy-Lamport snapshot at the
crash's virtual instant.  Because
every fault decision is a pure function of the plan's seed, the run — and
its fault counters — replay bit for bit.

Run:  python examples/chaos.py
"""

import json
import os
import tempfile

# Self-contained fallback: allow running from a fresh checkout without
# installing the package or exporting PYTHONPATH.
try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    import os
    import sys
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro.core import Advance, FunctionComponent, Receive, Send
from repro.distributed import CoSimulation
from repro.faults import FaultPlan, LinkFaults, NodeCrash
from repro.observability import TraceKind

VALUES = list(range(16))


def producer(comp):
    for value in VALUES:
        yield Advance(1.0)
        yield Send("out", value)


def collector(comp):
    comp.collected = []
    for __ in range(len(VALUES)):
        t, v = yield Receive("in")
        comp.collected.append((t, v))


def build(fault_plan=None):
    cosim = CoSimulation(snapshot_interval=4.0, fault_plan=fault_plan,
                         failure_policy="recover")
    ss_a = cosim.add_subsystem(cosim.add_node("seattle"), "design")
    ss_b = cosim.add_subsystem(cosim.add_node("boston"), "validation")
    prod = FunctionComponent("prod", producer, ports={"out": "out"})
    cons = FunctionComponent("cons", collector, ports={"in": "in"})
    ss_a.add(prod)
    ss_b.add(cons)
    channel = cosim.connect(ss_a, ss_b)
    channel.split_net(ss_a.wire("link", prod.port("out")),
                      ss_b.wire("link", cons.port("in")))
    return cosim, cons


def chaotic_run(seed):
    plan = FaultPlan(
        seed=seed,
        default=LinkFaults(drop=0.2, duplicate=0.1, delay=0.1, delay_ticks=2),
        crashes=(NodeCrash("boston", at_time=9.0),))
    cosim, cons = build(plan)
    cosim.run()
    return cosim, cons


def main():
    # The calm reference: no faults at all.
    reference, ref_cons = build()
    reference.run()

    # The same system under a seeded storm — plus a node crash at t=9.
    cosim, cons = chaotic_run(seed=42)
    assert cons.collected == ref_cons.collected, \
        "faults must never change the simulated behaviour"

    report = cosim.report(title="chaos, seed 42")
    print(report.render())
    # The node is lost at its crash instant and recovered there, so no
    # traffic is ever sent into the down node.
    assert [(r["subject"], r["time"]) for r in report.trace_records
            if r["kind"] == TraceKind.NODE_CRASH] == [("boston", 9.0)]
    assert "fault.messages_lost" not in report.faults

    # Replay: identical results, fault counters *and* report — snapshot
    # ids included, which each run numbers from its own registry.
    again, __ = chaotic_run(seed=42)
    assert again.fault_injector.summary() == cosim.fault_injector.summary()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chaos-42.json")
        report.save_json(path)
        with open(path, encoding="utf-8") as fh:
            saved = json.load(fh)
    replayed = json.loads(again.report(title="chaos, seed 42").to_json())
    assert saved == replayed
    print("replay of seed 42: fault counters and the whole report "
          "identical, bit for bit, in the run and in the saved report")

    different, __ = chaotic_run(seed=7)
    assert different.fault_injector.summary() != cosim.fault_injector.summary()
    print("seed 7: a different storm, same final state")


if __name__ == "__main__":
    main()
