#!/usr/bin/env python
"""CI trace smoke: exported timelines must be valid and causally closed.

Runs the compute-star workload twice — clean, then under seeded chaos
(drops, duplicates, delays, reorders with retries) — exports each trace
as Chrome-trace-event JSON in both the virtual and wall views, and
fails on:

* any shape problem :func:`~repro.observability.validate_chrome_trace`
  reports (bad ``ph``, missing ``pid``/``tid``/``ts``, an ``X`` slice
  without ``dur``, a flow finish with no start);
* orphaned causal links in the record stream itself: a ``MSG_RECV``
  whose span was never sent, or a send whose parent span is unknown;
* a chaos run whose duplicated deliveries do *not* share the original
  send's span (every copy of a message must keep one identity).

Usage::

    PYTHONPATH=src python benchmarks/trace_smoke.py

(CI runs it natively and again under ``PIA_PURE=1``, where every frame
is decoded by the pure-Python reader.)
"""

import json
import os
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))

from repro.bench.workloads import compute_star                # noqa: E402
from repro.faults import FaultPlan, LinkFaults, RetryPolicy   # noqa: E402
from repro.observability import (                             # noqa: E402
    causal_chains,
    span_name,
    validate_chrome_trace,
    write_chrome_trace,
)

CHAOS = FaultPlan(seed=0, default=LinkFaults(drop=0.12, duplicate=0.15,
                                             delay=0.12, delay_ticks=2,
                                             reorder=0.1))
RETRY = RetryPolicy(max_attempts=8, base_delay=0.0005, max_delay=0.002,
                    jitter=0.0)


def check(name, report):
    failures = []
    chains = causal_chains(report.trace_records)
    sends = len(chains["sends"])
    receives = sum(len(v) for v in chains["receives"].values())
    # Chain roots and hops are derived from the parent pointers.
    roots = len(set(chains["trace_ids"].values()))
    print(f"{name}: {sends} sends, {receives} span-linked receives, "
          f"{roots} chains, max hop {chains['max_hop']}")
    if sends == 0:
        failures.append(f"{name}: no causally linked sends recorded")
    for record in chains["orphan_receives"]:
        failures.append(
            f"{name}: orphaned causal link — receive of span "
            f"{span_name(record['span'])} has no recorded send")
    for record in chains["broken_parents"]:
        failures.append(
            f"{name}: send {span_name(record['span'])} names unknown "
            f"parent {span_name(record['parent'])}")
    for view in ("virtual", "wall"):
        with tempfile.NamedTemporaryFile("r", suffix=".json",
                                         delete=False) as fh:
            path = fh.name
        try:
            write_chrome_trace(path, report, view=view)
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        finally:
            os.unlink(path)
        problems = validate_chrome_trace(document)
        print(f"{name}: {view} view, "
              f"{len(document['traceEvents'])} timeline events, "
              f"{len(problems)} problems")
        failures.extend(f"{name}/{view}: {problem}"
                        for problem in problems[:10])
    return failures, chains


def main():
    failures = []

    clean = compute_star(2, 4, words=50, executor="cosim")
    clean.run(until=100.0)
    clean_failures, __ = check("clean", clean.report())
    failures.extend(clean_failures)

    chaos = compute_star(2, 4, words=50, executor="cosim",
                         fault_plan=CHAOS, retry_policy=RETRY)
    chaos.run(until=100.0)
    chaos_report = chaos.report()
    chaos_failures, chains = check("chaos", chaos_report)
    failures.extend(chaos_failures)
    # Exactly-once suppression drops the redundant copy before MSG_RECV,
    # so the shared span shows up on the suppression record instead: each
    # one must name a span the trace actually sent.
    suppressed = [record for record in chaos_report.trace_records
                  if record.get("action") == "duplicate-suppressed"]
    dup_count = chaos_report.faults.get("fault.duplicates", 0)
    print(f"chaos: {dup_count} injected duplicates, "
          f"{len(suppressed)} redundant copies suppressed")
    if dup_count and not suppressed:
        failures.append(
            "chaos run injected duplicates but recorded no suppressed "
            "copies")
    for record in suppressed:
        span = record.get("span")
        if span is None:
            failures.append(
                f"suppressed duplicate at t={record.get('time')} on "
                f"{record.get('subject')} carried no span — the copy "
                "lost the original send's trace context")
        elif span_name(span) not in chains["sends"]:
            failures.append(
                f"suppressed duplicate names unknown span {span_name(span)}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("trace smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
