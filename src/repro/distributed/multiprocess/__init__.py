"""Process-per-node execution: real parallelism across OS processes.

The paper's deployment is one JVM *process* per Pia node, joined by RMI —
genuinely parallel machines.  :class:`ThreadedCoSimulation` mirrors the
concurrency shape but executes all Python bytecode under one GIL, so
adding nodes never adds cores.  This module completes the picture: each
:class:`~repro.distributed.node.PiaNode` runs in its own OS process over
the real :class:`~repro.transport.tcp.TcpTransport` (loopback), with the
batched fast path and grant piggybacking on by default, so compute-heavy
subsystems scale with cores.

Three problems are specific to crossing a process boundary:

* **Bootstrap** — live components cannot cross ``spawn``, so the system
  is described as picklable *specs*: subsystems are named factories
  (dotted paths) the worker resolves and calls in its own process.
* **Coordination** — a pipe-based control plane starts, probes, quiesces
  and stops the workers; a worker that dies (or a scheduled
  :class:`~repro.faults.NodeCrash`, fired at its virtual instant)
  surfaces as a typed :class:`~repro.core.errors.NodeFailure` at that
  instant, exactly like the threaded executor.  "Has the run got to T?" — the finish
  line, or the instant the workers hold at for a service — is a
  distributed property, answered by the executors' one rule
  (:func:`~repro.distributed.system.reached`) over a double probe: two
  consecutive sweeps showing every worker idle, nothing parked, the
  global ``wire_out``/``wire_in`` sums balanced, and no progress between.
* **Observability** — every worker runs its own
  :class:`~repro.observability.Telemetry`; at quiescence each serialises
  its deterministic snapshot back to the coordinator, which folds them
  (:func:`repro.observability.report.fold`) into one
  :class:`~repro.observability.RunReport` with the same shape as a
  single-process report.

Chaos stays reproducible: fault decisions are pure functions of the
*plan seed* and per-link ordinals, so every worker receives
``fault_plan.for_node(...)`` — same seed, crashes filtered — and the
drop/duplicate/delay counters of a seeded run match the single-process
executors bit for bit.

With ``failure_policy="recover"`` the coordinator becomes a supervisor:
before the run starts it takes a baseline Chandy-Lamport cut (every
worker archives the images of its subsystems back to the
coordinator — stable storage in the paper's terms), and the supervision
loop feeds a heartbeat :class:`~repro.faults.FailureDetector`.  A worker
that dies, partitions, or is killed by a scheduled
:class:`~repro.faults.NodeCrash` is *relocated*: a fresh pool worker
adopts the lost node, every channel endpoint is re-spliced (peer tables,
shm rings, TCP connections), all workers roll back to the last completed
global snapshot under a new migration epoch (stale pre-failover traffic
is fenced at ingest), recorded in-flight messages are re-injected, and
the run resumes — deterministically, because conservative execution from
a consistent cut is a pure function of the virtual state.
:meth:`MultiprocessCoSimulation.migrate` is the same procedure with a
live source: a fresh cut is taken first, so nothing rolls back.
"""

from ... import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("ChannelSpec", "SubsystemSpec", "resolve_factory"),
                    "..spec"),
    "MultiprocessCoSimulation": ".coordinator",
    "WorkerPool": ".pool",
})
