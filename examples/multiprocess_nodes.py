#!/usr/bin/env python3
"""Process-per-node execution: the GIL-free deployment mode.

The same compute-star system — a hub fanning work out to two WubbleU-style
word-crunching nodes — runs twice: first under the cooperative
single-process executor, then with every Pia node in its **own OS
process**, joined by real loopback TCP with batched frames and piggybacked
safe-time grants.  Because subsystems cannot cross a process boundary as
live objects, the multiprocess run is described by *specs*: factories
named by dotted path that each worker process resolves and calls itself.

The punchline is the paper's: deployment is a pure performance choice.
Both runs must agree bit for bit on virtual times and event counts — only
wall-clock differs (and only multiprocess can use more than one core,
since the checksum loops hold the GIL).

Run:  python examples/multiprocess_nodes.py
      python examples/multiprocess_nodes.py --timeline star.json
      python examples/multiprocess_nodes.py --status status.json
          (and, in another terminal:
           python -m repro.observability.serve status.json --port 8000
           curl http://127.0.0.1:8000/status.json)

``--timeline`` exports the multiprocess run's merged causal trace as a
Chrome-trace/Perfetto JSON timeline (open it at https://ui.perfetto.dev);
``--status`` makes the coordinator publish live status snapshots that
``repro.observability.serve`` serves as ``/status.json`` and
``/metrics``.
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

import argparse
import time

from repro.bench.workloads import compute_star, compute_star_multiprocess
from repro.observability import (
    snapshot_quantile,
    validate_chrome_trace,
    write_chrome_trace,
)

WORKERS = 2
ROUNDS = 4
WORDS = 20_000


def progress(report):
    return [(row["name"], row["time"], row["dispatched"])
            for row in report.subsystems]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeline", metavar="PATH", default=None,
                        help="export the multiprocess run's causal trace "
                             "as Chrome-trace/Perfetto JSON")
    parser.add_argument("--view", choices=("virtual", "wall"),
                        default="virtual",
                        help="timeline timebase (default: virtual)")
    parser.add_argument("--status", metavar="PATH", default=None,
                        help="publish live status snapshots to PATH "
                             "(serve with python -m "
                             "repro.observability.serve PATH)")
    args = parser.parse_args(argv)

    print(f"compute star: {WORKERS} worker nodes x {ROUNDS} rounds "
          f"of {WORDS}-word checksums\n")

    cooperative = compute_star(WORKERS, ROUNDS, words=WORDS)
    start = time.perf_counter()
    events = cooperative.run()
    coop_wall = time.perf_counter() - start
    coop_rows = progress(cooperative.report())

    multiprocess = compute_star_multiprocess(WORKERS, ROUNDS, words=WORDS)
    start = time.perf_counter()
    mp_events = multiprocess.run(timeout=120.0, status_path=args.status)
    mp_wall = time.perf_counter() - start
    mp_report = multiprocess.report()
    mp_rows = progress(mp_report)

    print(f"{'subsystem':<10} {'virtual time':>12} {'events':>7}")
    for name, at, dispatched in mp_rows:
        print(f"{name:<10} {at:>12g} {dispatched:>7}")
    print()
    print(f"cooperative : {events} events in {coop_wall:.2f}s (1 process)")
    print(f"multiprocess: {mp_events} events in {mp_wall:.2f}s "
          f"({WORKERS + 1} processes over loopback TCP)")
    frames = sum(row["frames"] for row in mp_report.links)
    print(f"wire traffic: {frames} frames, "
          f"{sum(row['bytes'] for row in mp_report.links)} bytes "
          f"across {len(mp_report.links)} links")
    batches = mp_report.histograms["transport.batch_size"]
    print(f"messages per data frame: p50 "
          f"{snapshot_quantile(batches, 0.5):g}, p99 "
          f"{snapshot_quantile(batches, 0.99):g} over {batches['count']} "
          f"frames")

    assert mp_events == events, \
        f"event counts diverged: {mp_events} != {events}"
    assert mp_rows == coop_rows, \
        f"virtual times diverged:\n  coop: {coop_rows}\n  mp  : {mp_rows}"
    print("\ndeployments agree bit for bit: "
          "same virtual times, same event counts")

    if mp_report.stall_attribution:
        print("\nstall attribution (who waited on whom):")
        for row in mp_report.stall_attribution:
            marker = "  <- critical peer" if row["critical"] else ""
            print(f"  {row['subsystem']:<10} waited {row['waited']:g} "
                  f"virtual on {row['peer_node']} "
                  f"({row['waits']} waits){marker}")

    if args.timeline:
        document = write_chrome_trace(args.timeline, mp_report,
                                      view=args.view)
        problems = validate_chrome_trace(document)
        assert not problems, f"exported timeline invalid: {problems[:3]}"
        print(f"\ntimeline ({args.view} view): "
              f"{len(document['traceEvents'])} events -> {args.timeline}\n"
              "open it at https://ui.perfetto.dev (cross-node sends show "
              "as flow arrows)")
    if args.status:
        print(f"status snapshots published to {args.status} "
              "(final phase: done)")


if __name__ == "__main__":
    main()
