"""What crosses ``spawn`` to bootstrap one worker: its node's slice of
the :class:`~repro.distributed.spec.SystemSpec` plus the executor
arguments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from ...faults import FaultPlan, RetryPolicy
from ...transport.latency import LatencyModel
from ..spec import ChannelSpec, SubsystemSpec


class TelemetrySpec(NamedTuple):
    """The coordinator's telemetry plane, as a worker mirrors it."""

    trace_capacity: int
    #: ``TimeSeriesRecorder`` keyword arguments; None for no recorder.
    series: Optional[dict]
    #: Whether links are health-monitored.
    health: bool


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything one worker process needs to bootstrap its node."""

    node: str
    subsystems: Tuple[SubsystemSpec, ...]
    channels: Tuple[ChannelSpec, ...]
    telemetry: TelemetrySpec
    batching: bool = True
    fault_plan: Optional[FaultPlan] = None
    retry_policy: Optional[RetryPolicy] = None
    transport: str = "tcp"
    #: True under ``failure_policy="recover"``: a vanished peer is the
    #: supervisor's problem, so transport failures wedge the worker
    #: (no progress, await restore) instead of killing it.
    supervised: bool = False
    #: The system's ``(node a, node b, model)`` link latency models.
    links: Tuple[Tuple[str, str, LatencyModel], ...] = ()
