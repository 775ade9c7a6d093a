"""Streaming time-series over the metrics registry.

The :class:`~.metrics.MetricsRegistry` holds *current* values; this
module adds the time dimension: a :class:`TimeSeriesRecorder` samples
every counter and gauge (or a named subset) into bounded per-metric
rings, on a **virtual-time** cadence, a **wall-clock** cadence, or both.

Sampling is pulled from the executors' round boundaries — never from the
dispatch hot loop — so a run without a recorder attached pays one
``is None`` test per round.  Virtual-cadence samples are deterministic
under the cooperative executor: the sample times are a pure function of
the round structure, which the conservative protocol fixes.  Wall-cadence
samples (and any sampling under the parallel executors, whose round
pacing is OS-dependent) are measurements; like timers, they stay out of
the deterministic report projection.

Multiprocess runs keep one recorder per worker; :func:`~.report.fold`
keeps each worker's series under a ``node/metric`` key — in the final
report and in every live status snapshot, which is the same fold.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Iterable, List, Optional

from .trace import Ring, check_capacity

#: Ring capacity per series: enough for a long run at a sane cadence
#: without unbounded growth.
DEFAULT_CAPACITY = 1024


class TimeSeries(Ring):
    """One metric's bounded ring of ``(time, value)`` points."""

    __slots__ = ("name",)

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        super().__init__(capacity)
        self.name = name

    def append(self, t: float, value: float) -> None:
        super().append((t, value))

    def as_list(self) -> List[list]:
        """``[[t, value], ...]`` of every point held."""
        return [[t, v] for t, v in self]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TimeSeries {self.name} n={len(self)}>"


class TimeSeriesRecorder:
    """Samples registry counters and gauges into bounded rings.

    ``virtual_interval`` samples whenever virtual time crosses the next
    multiple of the interval (checked at round boundaries, so one round
    spanning several intervals yields one point — sampling can only
    observe state where the executor surfaces, and skipping keeps the
    cadence monotone).  ``wall_interval`` samples on elapsed wall clock.
    At least one cadence must be set; ``names`` optionally restricts
    which metrics are sampled.
    """

    def __init__(self, *, virtual_interval: Optional[float] = None,
                 wall_interval: Optional[float] = None,
                 capacity: int = DEFAULT_CAPACITY,
                 names: Optional[Iterable[str]] = None) -> None:
        if virtual_interval is None and wall_interval is None:
            virtual_interval = 1.0
        if virtual_interval is not None and virtual_interval <= 0:
            raise ValueError(
                f"virtual_interval must be positive: {virtual_interval!r}")
        if wall_interval is not None and wall_interval <= 0:
            raise ValueError(
                f"wall_interval must be positive: {wall_interval!r}")
        self.virtual_interval = virtual_interval
        self.wall_interval = wall_interval
        # Series are created at the first sample; a bad capacity must
        # fail here, not there.
        self.capacity = check_capacity(capacity)
        self.names = frozenset(names) if names is not None else None
        self.series: Dict[str, TimeSeries] = {}
        #: Samples taken (each covers every selected metric).
        self.samples = 0
        self._next_virtual = 0.0 if virtual_interval is not None else None
        self._next_wall: Optional[float] = None

    # ------------------------------------------------------------------
    def _series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(name, self.capacity)
        return series

    def sample(self, t: float, registry) -> None:
        """Record one point of every selected counter and gauge at ``t``."""
        self.samples += 1
        names = self.names
        for name, counter in registry.counters.items():
            if names is None or name in names:
                self._series(name).append(t, counter.value)
        for name, gauge in registry.gauges.items():
            if names is None or name in names:
                self._series(name).append(t, gauge.value)

    def tick(self, now: float, registry, *,
             wall: Optional[float] = None) -> bool:
        """Round-boundary hook: sample iff a cadence is due.

        ``now`` is the executor's current virtual time; ``wall`` defaults
        to ``time.monotonic()`` and exists so tests can drive the wall
        cadence deterministically.  Returns whether a sample was taken.
        """
        due = False
        interval = self.virtual_interval
        if interval is not None and now >= self._next_virtual:
            due = True
            self._next_virtual = (now // interval + 1.0) * interval
        interval = self.wall_interval
        if interval is not None:
            if wall is None:
                wall = _time.monotonic()
            if self._next_wall is None:
                self._next_wall = wall + interval
            elif wall >= self._next_wall:
                due = True
                self._next_wall = wall + interval
        if due:
            self.sample(now, registry)
        return due

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """``{name: {"points": [[t, value], ...]}}``, sorted by name."""
        return {name: {"points": self.series[name].as_list()}
                for name in sorted(self.series)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<TimeSeriesRecorder series={len(self.series)} "
                f"samples={self.samples}>")
