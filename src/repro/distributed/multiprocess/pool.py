"""Warm worker processes: spawn once, reuse across runs."""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from typing import List

from ...core.errors import ConfigurationError

#: How worker processes start: ``spawn`` exists on every platform and
#: never forks a coordinator that holds threads and locks.
START_METHOD = "spawn"


class _PoolWorker:
    """Coordinator-side handle on one warm worker process."""

    def __init__(self, ctx, index: int) -> None:
        # Only the spawned child runs the worker body; a process that
        # merely holds a pool never loads it.
        from .worker import _pool_main

        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.proc = ctx.Process(target=_pool_main, args=(child_conn,),
                                name=f"pia-pool-{index}", daemon=True)
        self.proc.start()
        child_conn.close()

    def is_alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)


class WorkerPool:
    """A reusable pool of warm worker processes.

    Spawning a Python process and importing the framework costs far more
    than most short co-simulation runs.  A pool spawns each process
    once; :class:`MultiprocessCoSimulation` checks workers out per
    ``run()`` and returns them afterwards, so repeated runs (parameter
    sweeps, benchmarks, warm services) skip the spawn entirely.  Share
    one pool across executors by passing it as the ``pool=`` argument.
    """

    def __init__(self) -> None:
        self.ctx = multiprocessing.get_context(START_METHOD)
        self._idle: List[_PoolWorker] = []
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._closed = False
        #: Lifetime spawn count (a warm pool keeps this flat across runs).
        self.spawned = 0

    def acquire(self, count: int) -> List[_PoolWorker]:
        """Check out ``count`` live workers, spawning only on shortfall."""
        with self._lock:
            if self._closed:
                raise ConfigurationError("worker pool is closed")
            workers: List[_PoolWorker] = []
            while self._idle and len(workers) < count:
                worker = self._idle.pop()
                if worker.is_alive():
                    workers.append(worker)
                else:
                    worker.kill()
            while len(workers) < count:
                workers.append(_PoolWorker(self.ctx, next(self._seq)))
                self.spawned += 1
            return workers

    def release(self, worker: _PoolWorker, *, healthy: bool = True) -> None:
        """Return a worker; unhealthy (or post-close) workers are killed.

        A worker that died (or misbehaved) mid-job must not poison its
        pool slot: unless the pool is closed, a replacement is spawned
        into the idle set so capacity stays constant across failures.
        """
        with self._lock:
            if not self._closed:
                if healthy and worker.is_alive():
                    self._idle.append(worker)
                    return
                self._idle.append(_PoolWorker(self.ctx, next(self._seq)))
                self.spawned += 1
        worker.kill()

    def close(self) -> None:
        """Shut down idle workers; in-flight workers die on release."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            try:
                worker.conn.send(("exit",))
            except OSError:
                pass
        for worker in idle:
            try:
                worker.proc.join(timeout=1.0)
            except Exception:
                pass
            worker.kill()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
