"""The geographically distributed layer (paper section 2.2)."""

from .channel import (
    Channel,
    ChannelComponent,
    ChannelEndpoint,
    ChannelMode,
    StragglerError,
)
from .conservative import (
    UNBOUNDED,
    SafeTimeClient,
    SafeTimeService,
    compute_grant,
    local_floor,
)
from .executor import CoSimulation
from .migration import (
    MigrationRecord,
    NodeArchive,
    archive_node,
    restore_node,
)
from .multiprocess import MultiprocessCoSimulation, WorkerPool
from .node import PiaNode, Socket
from .optimistic import RecoveryManager
from .partition import Deployment, Design, NetSpec, deploy, suggest_partition
from .snapshot import (
    GlobalSnapshot,
    SnapshotManager,
    SnapshotRegistry,
    SubsystemCut,
    new_snapshot_id,
)
from .spec import (
    ChannelSpec,
    SubsystemSpec,
    SystemSpec,
    register_factory,
    resolve_factory,
)
from .system import FAILURE_POLICIES, LiveSystem
from .threaded import LockedSafeTimeService, ThreadedCoSimulation
from .topology import communication_edges, offending_cycles, validate

__all__ = [
    "Channel", "ChannelComponent", "ChannelEndpoint", "ChannelMode",
    "ChannelSpec", "CoSimulation", "Deployment", "Design", "EXECUTORS",
    "FAILURE_POLICIES", "GlobalSnapshot", "LiveSystem",
    "LockedSafeTimeService", "MigrationRecord",
    "MultiprocessCoSimulation", "NetSpec", "NodeArchive",
    "PiaNode", "RecoveryManager", "SafeTimeClient",
    "SafeTimeService",
    "SnapshotManager", "SnapshotRegistry", "Socket", "StragglerError",
    "SubsystemCut", "SubsystemSpec", "SystemSpec", "ThreadedCoSimulation",
    "UNBOUNDED", "WorkerPool", "archive_node", "build",
    "communication_edges", "compute_grant", "deploy", "local_floor",
    "new_snapshot_id", "offending_cycles", "register_factory",
    "resolve_factory", "restore_node", "suggest_partition", "validate",
]

#: Executor name -> class.  Here, not in ``spec.py``: this is the one
#: module that sees all three executors, each of which imports the spec.
EXECUTORS = {"cosim": CoSimulation, "threaded": ThreadedCoSimulation,
             "multiprocess": MultiprocessCoSimulation}


def build(spec: SystemSpec, executor: str = "cosim", **executor_kwargs):
    """``spec`` loaded into a fresh executor of the named kind, un-run;
    ``executor_kwargs`` (fault plan, telemetry, batching, transport, …)
    go to its constructor."""
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}: "
                         f"use one of {sorted(EXECUTORS)}")
    return EXECUTORS[executor](**executor_kwargs).load(spec)
