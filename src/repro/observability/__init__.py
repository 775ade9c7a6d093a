"""Unified simulation telemetry: metrics, structured tracing, run reports.

The paper's evaluation is built from run statistics — stall counts
(Fig. 3), safe-time traffic (Fig. 4), per-link byte totals (Table 1).
This package gives those numbers one home: a :class:`Telemetry` instance
shared by every layer of a simulation feeds a :class:`MetricsRegistry`
(counters, gauges, wall-clock timers) and a bounded :class:`TraceBuffer`
of typed records; :func:`run_report` assembles both into a
:class:`RunReport` rendered as text or JSON.

On top of the raw records sits the causal layer: every data-plane
message carries a :mod:`span <repro.observability.spans>` context, so
send/receive/dispatch records across nodes link into chains —
exportable as a Chrome-trace/Perfetto timeline (:mod:`.export`),
profiled into per-peer stall attribution, and observable live for
multiprocess runs (:mod:`.live`).

Zero dependencies, deterministic under the in-memory transport, and a
one-attribute-read no-op path when disabled — cheap enough to leave on.
"""

from .export import (
    chrome_trace,
    stall_attribution,
    validate_chrome_trace,
    write_chrome_trace,
)
from .flight import FlightRecorder, flight_path
from .health import LinkHealthMonitor, attach_health, finalize_health
from .metrics import (
    BoundCounter,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Timer,
    snapshot_quantile,
)
from .report import RunReport, run_report
from .timeseries import TimeSeries, TimeSeriesRecorder
from .spans import (
    SpanMinter,
    causal_chains,
    ensure_context,
    span_name,
)
from .telemetry import NULL_TELEMETRY, Telemetry
from .trace import Ring, TraceBuffer, TraceKind, TraceRecord

__all__ = [
    "BoundCounter", "Counter", "Gauge", "Histogram", "MetricError",
    "MetricsRegistry",
    "Timer", "snapshot_quantile",
    "NULL_TELEMETRY", "Telemetry",
    "Ring", "TraceBuffer", "TraceKind", "TraceRecord",
    "RunReport", "run_report",
    "FlightRecorder", "flight_path",
    "LinkHealthMonitor", "attach_health", "finalize_health",
    "TimeSeries", "TimeSeriesRecorder",
    "SpanMinter", "causal_chains", "ensure_context", "span_name",
    "chrome_trace", "stall_attribution", "validate_chrome_trace",
    "write_chrome_trace",
]
