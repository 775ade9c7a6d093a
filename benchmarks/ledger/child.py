"""Child entry point: measure one workload, print one JSON line.

Started by ``run.py`` — one process per workload (and per set-up probe)
so every measurement begins with a fresh RSS and can be killed on a hard
timeout.  Everything heavy is imported inside ``main()``: the
multiprocess pool *spawns* its workers, which re-import this module as
``__mp_main__``, and they should not pay for (or repeat) any of it.
"""

import argparse
import json
import signal
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "check"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() just before this process started")
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--probe", action="store_true",
                        help="bring the workload up, report set-up, exit")
    args = parser.parse_args(argv)

    # A parent that gives up sends SIGTERM first: unwinding through the
    # ``finally`` blocks closes the pool and unlinks its shm segments.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from _paths import add_src
    add_src()
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.probe:
        result = measure.probe_setup(workload, seed=args.seed,
                                     scale=args.scale, t0=args.t0)
    else:
        result = measure.measure(
            workload, seed=args.seed, scale=args.scale, t0=args.t0,
            reps=args.reps, seconds=args.seconds, trace=bool(args.trace),
            trace_out=args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
