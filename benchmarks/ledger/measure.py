"""Measure one workload inside this process (the ledger's child side).

``run.py`` starts one child per workload so each gets a fresh RSS and a
hard timeout; this module is what the child runs.  End-to-end numbers
come from *dark* reps — tracing off, every default as a user gets it.
With ``trace`` on, a few more reps run under :class:`tracer.Tracer`, a
few with telemetry disabled, and the layer micro-probes run once;
together they give the per-layer numbers.

Every rep of a run does bit-identical work (the exact counts are
checked), so what differs between reps is the host, and a shared host
only ever adds time.  Whatever is compared across reps is therefore the
*fastest* rep, never an average (README.md, "Why the fastest rep").
"""

from __future__ import annotations

import gc
import os
import resource
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

import probes
from tracer import EXECUTOR_RUN, Tracer, layer_targets
from workloads import Workload, facts_of

from repro._native import BACKEND
from repro.distributed.multiprocess import WorkerPool

#: Fewest dark reps of any run, and all a traced run makes: there they
#: are only the base of the per-layer ratios.
MIN_REPS = 5
#: Reps under the tracer, with telemetry off, and of the cooperative
#: twin; the fastest of each is kept.
EXTRA_REPS = 3


def one_rep(workload: Workload, inputs, expected, pool, *,
            tracer: Optional[Tracer] = None,
            telemetry_off: bool = False) -> Dict[str, Any]:
    """Build a fresh instance (untimed), time its ``run()``, check its
    outputs.  A rep that raises, times out or mismatches has problems."""
    rep: Dict[str, Any] = {"wall_s": None, "facts": None, "rounds": 0,
                           "problems": [], "telemetry_off": telemetry_off}
    gc.collect()
    # Wrappers go in before the build: nodes bind ``self.serve`` and
    # ``self.handle_call`` at construction time.
    tracing = tracer.installed(layer_targets()) if tracer is not None \
        else nullcontext()
    try:
        with tracing:
            instance = workload.build(inputs, pool)
            if telemetry_off:
                instance.telemetry.disable()
            start = time.perf_counter()
            workload.run(instance)
            rep["wall_s"] = time.perf_counter() - start
        rep["facts"] = facts_of(instance.report())
        rep["rounds"] = getattr(instance, "rounds", 0)
        rep["problems"] = list(
            workload.verify(instance, rep["facts"], inputs, expected))
    except Exception as exc:  # a failed rep, counted in failed_share
        rep["problems"] = [f"{type(exc).__name__}: {exc}"]
    return rep


def check_exact(workload: Workload, reps: List[Dict[str, Any]]) -> None:
    """Fail every rep whose exact counts differ from the first good rep's."""
    baseline = None
    for rep in reps:
        if rep["problems"]:
            continue
        counts = {name: rep["facts"][name] for name in workload.exact}
        if baseline is None:
            baseline = counts
        elif counts != baseline:
            rep["problems"].append(
                f"exact counts {counts} differ from the first rep's "
                f"{baseline}")


def bring_up(workload: Workload, seed: int, scale: str, t0: float, pool):
    """Everything paid once before steady state.

    ``t0`` is the wall clock the parent read just before it started this
    process, so ``built_s`` covers interpreter start, imports and the
    first instance.  Multiprocess workloads add the pool: spawning it,
    plus what the cold first run costs over a warm one (worker imports
    and the hello handshake) — measured at the check size, where the run
    itself is next to nothing.
    """
    inputs = workload.prepare(seed, workload.sizes[scale])
    workload.build(inputs, pool)
    built_s = time.time() - t0
    sample = {"built_s": built_s, "pool_spawn_s": 0.0, "cold_run_s": 0.0,
              "setup_s": built_s}
    if pool is None:
        return inputs, sample
    small = workload.prepare(seed, workload.sizes["check"])

    def small_run() -> float:
        instance = workload.build(small, pool)
        start = time.perf_counter()
        workload.run(instance)
        return time.perf_counter() - start

    start = time.perf_counter()
    for worker in pool.acquire(inputs["workers"] + 1):
        pool.release(worker)
    spawn_s = time.perf_counter() - start
    cold_s = small_run()
    warm_s = min(small_run() for __ in range(2))
    sample.update(pool_spawn_s=spawn_s, cold_run_s=cold_s,
                  setup_s=built_s + spawn_s + max(0.0, cold_s - warm_s))
    return inputs, sample


def probe_setup(workload: Workload, *, seed: int, scale: str,
                t0: float) -> Dict[str, Any]:
    """One more set-up sample, from a process that does nothing else."""
    pool = WorkerPool() if workload.executor == "mp" else None
    try:
        __, setup = bring_up(workload, seed, scale, t0, pool)
    finally:
        if pool is not None:
            pool.close()
    return {"workload": workload.name, "setup": setup}


def peak_rss_mb() -> float:
    """This process plus the largest child it has waited for (the pool
    workers, once the pool is closed).  ``ru_maxrss`` is KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload: Workload, *, seed: int, scale: str, t0: float,
            reps: Optional[int] = None, seconds: Optional[float] = None,
            trace: bool = False,
            trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run ``workload`` and return its result document.

    ``reps`` fixes the number of dark reps; otherwise a traced run does
    :data:`MIN_REPS` and an untraced one keeps going until ``seconds``
    have passed, never stopping short of :data:`MIN_REPS`.
    """
    pool = WorkerPool() if workload.executor == "mp" else None
    layers = None
    try:
        inputs, setup = bring_up(workload, seed, scale, t0, pool)
        expected = workload.expect(inputs)
        if pool is None:
            # The untimed warm-up rep, at the check size: same code
            # paths for a fraction of the cost.  (With a pool, bring_up
            # has already run the workload three times.)
            workload.run(workload.build(
                workload.prepare(seed, workload.sizes["check"]), None))
        deadline = time.perf_counter()
        if reps is None:
            reps = MIN_REPS
            if not trace:
                deadline += seconds or 0.0
        dark: List[Dict[str, Any]] = []
        while len(dark) < reps or time.perf_counter() < deadline:
            dark.append(one_rep(workload, inputs, expected, pool))
        extra: List[Dict[str, Any]] = []
        if trace:
            layers, extra = _traced_part(workload, inputs, expected, pool,
                                         dark, setup, trace_out)
    finally:
        if pool is not None:
            pool.close()
    reps_run = dark + extra
    # The telemetry-off rep is left out: without telemetry no trace
    # context rides on the frames, so its byte count is rightly lower.
    check_exact(workload, [rep for rep in reps_run
                           if not rep["telemetry_off"]])
    good = [rep for rep in dark if not rep["problems"]]
    problems = [problem for rep in reps_run for problem in rep["problems"]]
    facts = good[0]["facts"] if good else {}
    return {
        "workload": workload.name,
        "scale": scale,
        "seed": seed,
        "sizes": workload.sizes[scale],
        "backend": BACKEND,
        "attempted": len(reps_run),
        "failed": sum(1 for rep in reps_run if rep["problems"]),
        "problems": problems[:5],
        "walls": [rep["wall_s"] for rep in good],
        "events": facts.get("events", 0),
        "net_delay_s": facts.get("net_delay_s", 0.0),
        "exact": {name: facts[name] for name in workload.exact} if good
                 else {},
        "setup": setup,
        "peak_rss_mb": peak_rss_mb(),
        "per_layer": layers,
    }


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 where the layer did not run."""
    return numerator / denominator if denominator else 0.0


def _fastest_wall(reps: List[Dict[str, Any]]) -> float:
    """The least wall time of ``reps``; 0 if none of them finished."""
    return min((rep["wall_s"] for rep in reps if rep["wall_s"] is not None),
               default=0.0)


def _traced_part(workload: Workload, inputs, expected, pool, dark, setup,
                 trace_out):
    """The traced reps, the telemetry-off reps, the cooperative twin and
    the micro-probes.  Returns the per-layer metrics and the extra reps
    (they count as attempted)."""
    pairs = []
    for run_id in range(1, EXTRA_REPS + 1):
        tracer = Tracer(keep_spans=trace_out is not None)
        tracer.run_id = run_id
        pairs.append((one_rep(workload, inputs, expected, pool,
                              tracer=tracer), tracer))
    extra = [rep for rep, __ in pairs]
    # The least disturbed traced rep gives the spans (if none finished,
    # the first reports its zeros).
    finished = [pair for pair in pairs if pair[0]["wall_s"] is not None]
    traced, tracer = min(finished or pairs[:1],
                         key=lambda pair: pair[0]["wall_s"] or 0.0)
    if trace_out is not None:
        tracer.dump_jsonl(trace_out)
    telemetry_off_wall = 0.0
    if workload.executor != "mp":
        # Worker processes build their own Telemetry; from outside only
        # the single-process executors can be switched off.
        off = [one_rep(workload, inputs, expected, pool, telemetry_off=True)
               for __ in range(EXTRA_REPS)]
        extra += off
        telemetry_off_wall = _fastest_wall(off)
    coop_wall = 0.0
    if workload.coop_twin is not None:
        walls = []
        for __ in range(EXTRA_REPS):
            twin = workload.coop_twin(inputs)
            gc.collect()
            start = time.perf_counter()
            twin.run()
            walls.append(time.perf_counter() - start)
        coop_wall = min(walls)
    layers = layer_metrics(
        workload, inputs, tracer.totals(), traced,
        dark_wall=_fastest_wall(dark),
        telemetry_off_wall=telemetry_off_wall, coop_wall=coop_wall,
        setup=setup)
    return layers, extra


def layer_metrics(workload: Workload, inputs, totals, traced, *,
                  dark_wall: float, telemetry_off_wall: float,
                  coop_wall: float, setup) -> Dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json, by name.

    A layer that does not run on this workload reads 0 — in its counts
    because that is the count, in its ratios as "not measured".
    """
    facts = traced["facts"] or {}
    traced_wall = traced["wall_s"] or 0.0
    events = facts.get("events", 0)
    messages = facts.get("messages", 0)
    frames = facts.get("frames", 0)
    nbytes = facts.get("bytes", 0)

    def row(name: str) -> dict:
        return totals.get(name, {"calls": 0, "useful": 0, "self_s": 0.0})

    out: Dict[str, float] = {}
    # One calls/self_s pair per span name the tracer wraps; the executor's
    # run() is the root and is reported as the executor's residual below.
    for name in sorted({name for name, __, __ in layer_targets()}
                       - {EXECUTOR_RUN}):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("distributed.node.pump", "transport.inmemory.poll",
                 "transport.inmemory.flush_batches"):
        out[f"{name}.useful_ratio"] = _ratio(row(name)["useful"],
                                             row(name)["calls"])

    out["core.scheduler.events_per_run_call"] = _ratio(
        events, row("core.subsystem.run")["calls"])
    out["core.scheduler.dispatch_events_per_s"] = \
        probes.dispatch_events_per_s()

    out["distributed.executor.rounds"] = traced["rounds"]
    out["distributed.executor.self_s"] = row(EXECUTOR_RUN)["self_s"]
    out["distributed.executor.events_per_round"] = _ratio(
        events, traced["rounds"])

    out["distributed.conservative.requests"] = facts.get("requests", 0)
    out["distributed.conservative.piggybacked"] = facts.get("piggybacked", 0)
    out["distributed.conservative.pushed"] = facts.get("pushed", 0)
    out["distributed.conservative.requests_per_msg"] = _ratio(
        facts.get("requests", 0), facts.get("data_messages", 0))

    out["transport.accounting.messages"] = messages
    out["transport.accounting.frames"] = frames
    out["transport.accounting.bytes"] = nbytes
    out["transport.accounting.net_delay_s"] = facts.get("net_delay_s", 0.0)
    out["transport.batch.msgs_per_frame"] = _ratio(messages, frames)
    out["transport.codec.bytes_per_msg"] = _ratio(nbytes, messages)

    # The workload's own frames, from an in-memory run at the check size
    # (the cooperative twin where the workload itself runs in workers).
    small = workload.prepare(inputs["seed"], workload.sizes["check"])
    if workload.carrier == "none":
        samples = []
    elif workload.coop_twin is not None:
        samples = probes.sample_messages(lambda: workload.coop_twin(small))
    else:
        samples = probes.sample_messages(
            lambda: workload.build(small, None))
    encode_us, decode_us = probes.codec_us(samples)
    out["transport.codec.encode_us"] = encode_us
    out["transport.codec.decode_us"] = decode_us
    out["transport.tcp.loopback_rtt_us"] = \
        probes.tcp_loopback_rtt_us(samples[0]) \
        if workload.carrier == "tcp" else 0.0
    out["transport.shm.ring_rtt_us"] = \
        probes.shm_ring_rtt_us(samples[0]) \
        if workload.carrier == "shm" else 0.0

    # One hub turn is one request/reply round trip per spoke.  Only the
    # star family has rounds and a cooperative twin, so all of these
    # read 0 on the cooperative workloads by themselves.
    rtt_us = _ratio(dark_wall, inputs.get("rounds", 0)) * 1e6
    overhead = _ratio(dark_wall, coop_wall)
    for executor, layer in (("mp", "distributed.multiprocess"),
                            ("threaded", "distributed.threaded")):
        mine = workload.executor == executor
        out[f"{layer}.rtt_us"] = rtt_us if mine else 0.0
        out[f"{layer}.overhead_vs_coop"] = overhead if mine else 0.0
    is_mp = workload.executor == "mp"
    speedup = _ratio(coop_wall, dark_wall) if is_mp else 0.0
    cores = len(os.sched_getaffinity(0))
    out["distributed.multiprocess.pool_spawn_s"] = setup["pool_spawn_s"]
    out["distributed.multiprocess.cold_run_s"] = setup["cold_run_s"]
    out["distributed.multiprocess.speedup_vs_coop"] = speedup
    out["distributed.multiprocess.parallel_efficiency"] = _ratio(
        speedup, min(inputs.get("workers", 0), cores))

    out["observability.telemetry.overhead_ratio"] = _ratio(
        dark_wall, telemetry_off_wall)
    out["observability.trace.records"] = facts.get("trace_records", 0)

    out["ledger.trace.overhead_ratio"] = _ratio(traced_wall, dark_wall)
    # What no span below the executor's run() covers: for a cooperative
    # run, the round loop itself.
    attributed = sum(entry["self_s"] for name, entry in totals.items()
                     if name != EXECUTOR_RUN)
    out["ledger.trace.unattributed_share"] = \
        max(0.0, 1.0 - _ratio(attributed, traced_wall)) \
        if traced_wall else 0.0
    return out

