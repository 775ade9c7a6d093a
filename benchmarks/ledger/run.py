"""The perf ledger: one command for every end-to-end and per-layer number.

    python benchmarks/ledger/run.py [--workload NAME|all] [--seed N]
        [--reps N | --seconds S] [--trace [0|1]] [--json OUT]
        [--trace-out SPANS.jsonl] [--list] [--check]

Each workload runs in its own child process (fresh RSS, hard timeout);
a few more short children per workload repeat the set-up so ``setup_s``
has several samples.  Every metric is printed by name with its unit —
its value is the best of its samples, the median is printed beside it —
outputs are checked, and the exit code is non-zero if any rep failed.
Run on one workload, the last line of stdout is the JSON object the
benchmark driver reads (README.md, "The driver contract").  ``all`` is
every workload of ``workloads.py``: the ones ``BENCHMARK.json`` names,
which the driver fences, and the rest.

This file imports nothing heavy at module level: it never runs a
simulation itself.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from _paths import LEDGER, ROOT, SRC, add_src

#: Dark reps when neither ``--reps`` nor ``--seconds`` is given.
DEFAULT_REPS = 15
#: Extra set-up-only children per workload (the main child is a sample
#: too, so ``setup_s`` has thirteen).
SETUP_PROBES = 12
#: Hard limits on one child; the driver allows a whole run 180 s, and a
#: healthy one takes ``--seconds`` plus 2-4 s (a set-up probe 1-2 s).
CHILD_TIMEOUT_S = 120.0
PROBE_TIMEOUT_S = 20.0


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# backend
# ----------------------------------------------------------------------
def ensure_backend() -> None:
    """Build the native hot core the documented way when a C compiler is
    on PATH.  ``setup.py`` downgrades a failed compile to a warning, so
    success is judged by the artefact: a compiler that produces nothing
    is a benchmark error, not a silent fall-back to pure python."""
    if not SRC.is_dir():
        sys.exit(f"ledger: no src/ beside {LEDGER} — run from a checkout "
                 "of the repository")
    pattern = str(SRC / "repro" / "_native" / "_core*.so")
    if glob.glob(pattern) or os.environ.get("PIA_PURE"):
        return
    if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
        return
    # Compiler temporaries stay inside the checkout.
    tmp = ROOT / "build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    built = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
        env=dict(os.environ, TMPDIR=str(tmp)),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if built.returncode != 0 or not glob.glob(pattern):
        sys.stderr.write(built.stdout)
        sys.exit("ledger: a C compiler is on PATH but `python setup.py "
                 "build_ext --inplace` produced no native core")


def environment(backend: str) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"    # the driver's checkout is not a repository
    return {
        "backend": backend,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def run_child(args: List[str], *,
              timeout: float = CHILD_TIMEOUT_S) -> Optional[Dict[str, Any]]:
    """Run ``child.py`` and return the JSON object on its last stdout
    line — ``None`` if it hung, died or printed none.

    The child leads its own session.  On a hang it first gets SIGTERM,
    which unwinds its ``finally`` blocks (pool closed, shm unlinked);
    whatever is left of the session is then killed, so no worker
    outlives the benchmark.
    """
    command = [sys.executable, str(LEDGER / "child.py"),
               "--t0", repr(time.time())] + args
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    hung = False
    try:
        out, __ = child.communicate(timeout=timeout)
    except BaseException as exc:
        # A hang, or this process is itself being stopped (Ctrl-C, or
        # SIGTERM, which main() turns into SystemExit): either way the
        # child's session must not outlive it.
        hung = True
        child.terminate()
        try:
            child.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
    if hung or child.returncode != 0:
        return None
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def best(samples: List[float], better: str) -> float:
    """The sample least touched by the host (README.md, "Why the fastest
    rep"): the smallest of a cost, the largest of a rate."""
    return min(samples) if better == "lower" else max(samples)


def run_workload(name: str, *, seed: int, scale: str, reps: Optional[int],
                 seconds: Optional[float], trace: bool,
                 trace_out: Optional[str],
                 timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Measure one workload; returns its entry of the result document."""
    common = ["--workload", name, "--seed", str(seed), "--scale", scale]
    args = common + ["--trace", str(int(trace))]
    if reps is not None:
        args += ["--reps", str(reps)]
    if seconds is not None:
        args += ["--seconds", repr(seconds)]
    if trace_out is not None:
        args += ["--trace-out", trace_out]
    result = run_child(args, timeout=timeout)
    if result is None:
        # Hung or died: every rep it was asked for counts as failed.
        planned = reps if reps is not None else 1
        return {"workload": name, "scale": scale, "seed": seed,
                "attempted": planned, "failed": planned,
                "failed_share": 1.0, "end_to_end": {}, "per_layer": None,
                "problems": ["the child process hung, died or printed "
                             "no result"]}
    setups = [result["setup"]["setup_s"]]
    if scale == "full":
        for __ in range(SETUP_PROBES):
            probe = run_child(common + ["--probe"],
                              timeout=min(timeout, PROBE_TIMEOUT_S))
            if probe is not None:
                setups.append(probe["setup"]["setup_s"])
    walls = result["walls"]
    events = result["events"]
    better = {spec["name"]: spec["better"]
              for spec in load_benchmark()["end_to_end"]}
    end_to_end = {}
    if walls:
        end_to_end = {
            "wall_s": walls,
            "events_per_s": [events / wall for wall in walls],
            "sim_time_s": [wall + result["net_delay_s"] for wall in walls],
            "setup_s": setups,
            "peak_rss_mb": [result["peak_rss_mb"]],
        }
    return {
        "workload": name, "scale": scale, "seed": seed,
        "sizes": result["sizes"], "backend": result["backend"],
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_share": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "exact": result["exact"],
        "net_delay_s": result["net_delay_s"],
        "end_to_end": {metric: {"value": best(samples, better[metric]),
                                "median": statistics.median(samples),
                                "n": len(samples), "samples": samples}
                       for metric, samples in end_to_end.items()},
        "per_layer": result["per_layer"],
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_entry(entry: Dict[str, Any], units: Dict[str, str]) -> None:
    name = entry["workload"]
    print(f"== {name}  (seed {entry['seed']}, {entry['scale']} size "
          f"{entry.get('sizes', '?')})")
    for metric, row in entry["end_to_end"].items():
        print(f"  {metric:<44} {row['value']:>16.6g} {units[metric]:<9} "
              f"best of n={row['n']}, median {row['median']:.6g}")
    print(f"  {'net_delay_s':<44} {entry.get('net_delay_s', 0.0):>16.6g} "
          f"{'s':<9} exact")
    print(f"  {'failed_share':<44} {entry['failed_share']:>16.6g} "
          f"{'ratio':<9} {entry['failed']}/{entry['attempted']} reps")
    for metric, value in (entry["per_layer"] or {}).items():
        print(f"  {metric:<44} {value:>16.6g} {units[metric]}")
    for problem in entry["problems"]:
        print(f"  FAILED: {problem}")


def contract_line(entry: Dict[str, Any], benchmark: Dict[str, Any],
                  trace: bool) -> str:
    """The driver's result object: with ``--trace 0`` every end-to-end
    metric, with ``--trace 1`` every per-layer metric."""
    metrics = {}
    if trace:
        layers = entry["per_layer"] or {}
        for spec in benchmark["per_layer"]:
            if spec["name"] in layers:
                metrics[spec["name"]] = {"value": layers[spec["name"]],
                                         "unit": spec["unit"]}
    else:
        for spec in benchmark["end_to_end"]:
            row = entry["end_to_end"].get(spec["name"])
            if row is not None:
                metrics[spec["name"]] = {"value": row["value"],
                                         "unit": spec["unit"]}
    return json.dumps({"correct": entry["failed"] == 0,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


def list_benchmark(benchmark: Dict[str, Any], workloads) -> None:
    fenced = {spec["name"] for spec in benchmark["workloads"]}
    print("workloads:")
    for name, workload in workloads.items():
        note = "fenced by BENCHMARK.json" if name in fenced \
            else "measured, not fenced"
        print(f"  {name}  ({note})\n      full {workload.sizes['full']}\n"
              f"      check {workload.sizes['check']}\n"
              f"      why: {workload.why}")
    print("end-to-end metrics:")
    for spec in benchmark["end_to_end"]:
        print(f"  {spec['name']:<44} {spec['unit']:<9} "
              f"{spec['better']:<6} bound {spec['bound']}")
    print("per-layer metrics:")
    for spec in benchmark["per_layer"]:
        print(f"  {spec['name']:<44} {spec['unit']:<9} {spec['better']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int,
                        help=f"timed reps (default {DEFAULT_REPS})")
    parser.add_argument("--seconds", type=float,
                        help="keep making reps for this long instead, "
                             "never fewer than 5")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="add the traced rep and report per-layer "
                             "metrics")
    parser.add_argument("--trace-out", metavar="SPANS.jsonl",
                        help="dump the traced rep's raw spans (one "
                             "workload only)")
    parser.add_argument("--json", metavar="OUT",
                        help="write the result document here")
    parser.add_argument("--list", action="store_true",
                        help="print workloads, metrics, units, bounds, sizes")
    parser.add_argument("--check", action="store_true",
                        help="smoke: tiny sizes, 1 dark rep, every "
                             "workload, traced")
    args = parser.parse_args(argv)

    # Stopped from outside, unwind through run_child's handler.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    benchmark = load_benchmark()
    ensure_backend()
    add_src()
    from workloads import WORKLOADS
    if args.list:
        list_benchmark(benchmark, WORKLOADS)
        return 0
    known = list(WORKLOADS)
    if args.workload != "all" and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}: one of {known}")
    names = known if args.workload == "all" else [args.workload]
    if args.trace_out and len(names) != 1:
        parser.error("--trace-out needs a single --workload")

    scale, trace, reps = "full", bool(args.trace), args.reps
    if args.check:
        scale, trace, reps = "check", True, 1
    elif reps is None and args.seconds is None:
        reps = DEFAULT_REPS
    units = {spec["name"]: spec["unit"]
             for spec in benchmark["end_to_end"] + benchmark["per_layer"]}
    entries = {}
    for name in names:
        entry = run_workload(name, seed=args.seed, scale=scale, reps=reps,
                             seconds=args.seconds, trace=trace,
                             trace_out=args.trace_out)
        entries[name] = entry
        print_entry(entry, units)
    backend = next((entry["backend"] for entry in entries.values()
                    if "backend" in entry), "unknown")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "env": environment(backend),
                       "seed": args.seed, "scale": scale,
                       "workloads": entries}, handle, indent=1)
            handle.write("\n")
    if len(names) == 1:
        print(contract_line(entries[names[0]], benchmark, bool(args.trace)))
    return 1 if any(entry["failed"] for entry in entries.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
