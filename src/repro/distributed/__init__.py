"""The geographically distributed layer (paper section 2.2)."""

from __future__ import annotations

import sys
from collections.abc import Mapping

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("Channel", "ChannelComponent", "ChannelEndpoint",
                     "ChannelMode", "StragglerError"),
                    ".channel"),
    **dict.fromkeys(("UNBOUNDED", "SafeTimeClient", "SafeTimeService",
                     "compute_grant"),
                    ".conservative"),
    "CoSimulation": ".executor",
    **dict.fromkeys(("MigrationRecord", "NodeArchive", "archive_node",
                     "restore_node"),
                    ".migration"),
    "MultiprocessCoSimulation": ".multiprocess.coordinator",
    "WorkerPool": ".multiprocess.pool",
    **dict.fromkeys(("PiaNode", "Socket"), ".node"),
    "RecoveryManager": ".optimistic",
    **dict.fromkeys(("Deployment", "Design", "NetSpec", "deploy",
                     "suggest_partition"),
                    ".partition"),
    **dict.fromkeys(("GlobalSnapshot", "SnapshotManager", "SnapshotRegistry",
                     "SubsystemCut"),
                    ".snapshot"),
    **dict.fromkeys(("ChannelSpec", "SubsystemSpec", "SystemSpec",
                     "resolve_factory"),
                    ".spec"),
    **dict.fromkeys(("FAILURE_POLICIES", "LiveSystem"), ".system"),
    **dict.fromkeys(("LockedSafeTimeService", "ThreadedCoSimulation"),
                    ".threaded"),
    **dict.fromkeys(("communication_edges", "offending_cycles", "validate"),
                    ".topology"),
})

__all__ += ["EXECUTORS", "build"]


class _Executors(Mapping):
    """Executor name -> class, each imported when it is looked up: a
    process that builds one executor loads only that one's modules."""

    CLASSES = {"cosim": "CoSimulation", "threaded": "ThreadedCoSimulation",
               "multiprocess": "MultiprocessCoSimulation"}

    def __getitem__(self, name: str) -> type:
        return getattr(sys.modules[__name__], self.CLASSES[name])

    def __iter__(self):
        return iter(self.CLASSES)

    def __len__(self) -> int:
        return len(self.CLASSES)


#: Executor name -> class.  Here, not in ``spec.py``: this is the one
#: module that sees all three executors, each of which imports the spec.
EXECUTORS = _Executors()


def build(spec: SystemSpec, executor: str = "cosim", **executor_kwargs):
    """``spec`` loaded into a fresh executor of the named kind, un-run;
    ``executor_kwargs`` (fault plan, telemetry, batching, transport, …)
    go to its constructor."""
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}: "
                         f"use one of {sorted(EXECUTORS)}")
    return EXECUTORS[executor](**executor_kwargs).load(spec)
