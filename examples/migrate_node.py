#!/usr/bin/env python3
"""Live migration and supervised failover on the multiprocess backplane.

The paper's geographically distributed sessions died with their weakest
workstation; this example shows the repo's answer.  A three-node compute
star runs three times under ``failure_policy="recover"``:

1. **reference** — fault-free, nothing moves;
2. **live migration** — ``migrate_at()`` moves one worker node to a
   fresh pool process mid-run: halt at a safe point, drain the wire to
   quiescence, take a Chandy-Lamport cut, ship the portable images,
   re-splice every channel endpoint, resume;
3. **failover** — a scheduled crash kills a worker process outright; the
   supervisor's heartbeat detector confirms the death, elects a fresh
   pool worker, rebuilds the node from its factory specs and restores it
   from the last completed global snapshot.

All three runs must finish with bit-identical per-subsystem virtual
times and event counts — a move (voluntary or forced) is invisible in
simulation state.  The placement timeline printed at the end shows each
node's journey between worker processes, and ``report.migrations``
carries the measured pause and snapshot size for every move.

Run:  python examples/migrate_node.py
"""

# Self-contained fallback: allow running from a fresh checkout without
# installing the package or exporting PYTHONPATH.
try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    import os
    import sys
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro.bench.workloads import compute_star_multiprocess
from repro.faults import FaultPlan, NodeCrash

WORKERS = 2          # n-hub + n-w0 + n-w1: three nodes, three processes
ROUNDS = 6
WORDS = 2_000
MOVE_AT = 2.0        # global virtual time triggering the move / crash


def progress(report):
    return sorted((row["name"], row["time"], row["dispatched"])
                  for row in report.subsystems)


def show_moves(report):
    for record in report.migrations:
        print(f"  {record['kind']:<8} {record['node']:<6} "
              f"({record['reason']}) at t={record['at_global_time']:g}: "
              f"paused {record['wall_pause'] * 1000:.0f} ms, shipped "
              f"{record['snapshot_bytes']} bytes, replayed "
              f"{record['replayed_messages']} in-flight messages")


def show_placement(cosim):
    for entry in cosim.placement_log:
        print(f"  epoch {entry['epoch']}  {entry['node']:<6} "
              f"{entry['event']:<9} {entry['worker']} (pid {entry['pid']})")


def main():
    print(f"compute star: {WORKERS} worker nodes x {ROUNDS} rounds, "
          f"failure_policy='recover'\n")

    reference = compute_star_multiprocess(WORKERS, ROUNDS, words=WORDS,
                                          failure_policy="recover")
    events_ref = reference.run(timeout=120.0)
    rows_ref = progress(reference.report())
    print(f"reference run : {events_ref} events, nothing moved")

    moved = compute_star_multiprocess(WORKERS, ROUNDS, words=WORDS,
                                      failure_policy="recover")
    moved.migrate_at("n-w1", MOVE_AT)
    events_moved = moved.run(timeout=120.0)
    report_moved = moved.report()
    print(f"live migration: {events_moved} events, n-w1 moved at "
          f"t={MOVE_AT:g}")
    show_moves(report_moved)

    crashed = compute_star_multiprocess(
        WORKERS, ROUNDS, words=WORDS, failure_policy="recover",
        fault_plan=FaultPlan(seed=3,
                             crashes=[NodeCrash("n-w0", at_time=MOVE_AT)]))
    events_crashed = crashed.run(timeout=120.0)
    report_crashed = crashed.report()
    print(f"failover run  : {events_crashed} events, n-w0's worker was "
          f"killed at t={MOVE_AT:g} and adopted by a fresh process")
    show_moves(report_crashed)

    assert progress(report_moved) == rows_ref, \
        "live migration changed simulation state"
    assert progress(report_crashed) == rows_ref, \
        "failover changed simulation state"
    assert events_moved == events_ref and events_crashed == events_ref
    assert [m["kind"] for m in report_moved.migrations] == ["migrate"]
    assert [m["kind"] for m in report_crashed.migrations] == ["failover"]
    print("\nall three runs agree bit for bit: same virtual times, "
          "same event counts")

    print("\nplacement timeline (live migration run):")
    show_placement(moved)
    print("\nplacement timeline (failover run):")
    show_placement(crashed)

    for cosim in (reference, moved, crashed):
        cosim.close()


if __name__ == "__main__":
    main()
