"""The metrics registry: counters, gauges and wall-clock timers.

Counters and gauges are *deterministic* under the in-memory transport:
they only record simulation facts (events dispatched, bytes crossing a
link), so two runs of the same scenario produce identical values.  Timers
measure wall-clock seconds and are therefore kept apart — reports exclude
them from the deterministic snapshot by default.

Everything here is plain stdlib Python.  Thread safety is advisory: the
TCP transport increments counters from receiver threads, where a lost
update costs one tick of a statistic, never a wrong simulation result.
"""

from __future__ import annotations

import math as _math
from bisect import bisect_left
from typing import Dict, Optional


class MetricError(ValueError):
    """An invalid metric operation (e.g. decrementing a counter)."""


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> int:
        if n < 0:
            raise MetricError(
                f"counter {self.name!r}: cannot increment by {n}")
        self.value += n
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self.value}>"


class BoundCounter:
    """``telemetry.count(name, n)`` for a site that runs per message: the
    :class:`Counter` is looked up by name once and held by the site's
    owner.  Indistinguishable from the by-name increment otherwise — the
    counter is created by the first increment, not before; a registry
    swapped with its telemetry is noticed at the next increment and
    counting starts from zero there; a disabled telemetry counts
    nothing."""

    __slots__ = ("name", "_counter", "_registry")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counter: Optional[Counter] = None
        self._registry: Optional["MetricsRegistry"] = None

    def inc(self, telemetry, n: int = 1) -> None:
        if not telemetry.enabled:
            return
        registry = telemetry.registry
        if registry is not self._registry:
            self._registry = registry
            self._counter = registry.counter(self.name)
        self._counter.value += n


class Gauge:
    """A value that can move both ways (queue depths, horizons, times)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """A distribution of integer-ish samples (batch sizes, frame bytes).

    Buckets are fixed powers of two, so two runs of the same scenario
    produce identical snapshots — histograms belong to the deterministic
    portion of a report, like counters and gauges.
    """

    #: Upper bounds (inclusive) of the power-of-two buckets.
    BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (len(self.BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # bisect_left keeps the documented *inclusive* upper bounds: a
        # sample equal to a bound belongs in that bound's bucket (1 in
        # "<=1", 1024 in "<=1024", not overflow).
        self.buckets[bisect_left(self.BOUNDS, value)] += 1

    def snapshot(self) -> dict:
        buckets = {f"<={bound}": self.buckets[i]
                   for i, bound in enumerate(self.BOUNDS)}
        buckets[f">{self.BOUNDS[-1]}"] = self.buckets[-1]
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
            "buckets": buckets,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.name} n={self.count} total={self.total:g}>"


def merge_histograms(into: Dict[str, dict], add: Dict[str, dict]) -> None:
    """Fold :meth:`Histogram.snapshot` dicts ``add`` into ``into``.

    Count, total and per-bucket tallies sum; min/max combine; the mean is
    recomputed from the merged mass.  A histogram new to ``into`` is
    copied, so later merges never write through to ``add``.
    """
    for name, snap in add.items():
        have = into.get(name)
        if have is None:
            into[name] = {**snap, "buckets": dict(snap["buckets"])}
            continue
        have["count"] += snap["count"]
        have["total"] += snap["total"]
        for bound, better in (("min", min), ("max", max)):
            if snap[bound] is not None:
                have[bound] = snap[bound] if have[bound] is None \
                    else better(have[bound], snap[bound])
        have["mean"] = have["total"] / have["count"] if have["count"] \
            else None
        for label, tally in snap["buckets"].items():
            have["buckets"][label] = have["buckets"].get(label, 0) + tally


def snapshot_quantile(snapshot: dict, q: float) -> Optional[float]:
    """Quantile estimate over a histogram *snapshot* dict.

    Works on live :meth:`Histogram.snapshot` output and on cross-process
    snapshots merged by :func:`merge_histograms` alike.  The
    estimate is the upper bound of the bucket holding the ``q``-th
    sample rank, clamped into the observed ``[min, max]`` — coarse
    (bucket-resolution) but a pure function of the deterministic bucket
    tallies, so it belongs in diffable reports.  Returns ``None`` for an
    empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile must be in [0, 1]: {q!r}")
    count = snapshot.get("count", 0)
    if not count:
        return None
    rank = max(1, _math.ceil(count * q))
    buckets = snapshot.get("buckets", {})
    low, high = snapshot.get("min"), snapshot.get("max")
    seen = 0
    for bound in Histogram.BOUNDS:
        seen += buckets.get(f"<={bound}", 0)
        if seen >= rank:
            estimate = float(bound)
            if low is not None:
                estimate = max(estimate, float(low))
            if high is not None:
                estimate = min(estimate, float(high))
            return estimate
    # Rank lands in the overflow bucket: the max is the best bound.
    return float(high) if high is not None else float(Histogram.BOUNDS[-1])


class Timer:
    """Accumulated wall-clock time, folded in from durations measured
    elsewhere."""

    __slots__ = ("name", "total", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.count = 0

    def add(self, seconds: float, blocks: int = 1) -> None:
        """Fold in a duration measured elsewhere."""
        self.total += seconds
        self.count += blocks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timer {self.name} total={self.total:.6f}s n={self.count}>"


class MetricsRegistry:
    """Lazily creates and owns every metric, keyed by name."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.timers: Dict[str, Timer] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    def timer(self, name: str) -> Timer:
        metric = self.timers.get(name)
        if metric is None:
            metric = self.timers[name] = Timer(name)
        return metric

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic state: counters, gauges and histograms, sorted."""
        return {
            "counters": {name: self.counters[name].value
                         for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name].value
                       for name in sorted(self.gauges)},
            "histograms": {name: self.histograms[name].snapshot()
                           for name in sorted(self.histograms)},
        }

    def timings(self) -> dict:
        """Wall-clock timers (nondeterministic; reported separately)."""
        return {name: {"total_seconds": self.timers[name].total,
                       "count": self.timers[name].count}
                for name in sorted(self.timers)}
