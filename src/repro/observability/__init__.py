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
profiled into per-peer stall attribution, and served live for
multiprocess runs (:mod:`.serve`).

Zero dependencies, deterministic under the in-memory transport, and a
one-attribute-read no-op path when disabled — cheap enough to leave on.
"""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("chrome_trace", "stall_attribution",
                     "validate_chrome_trace", "write_chrome_trace"),
                    ".export"),
    **dict.fromkeys(("FlightRecorder", "flight_path"), ".flight"),
    **dict.fromkeys(("LinkHealthMonitor", "attach_health", "finalize_health"),
                    ".health"),
    **dict.fromkeys(("BoundCounter", "Counter", "Gauge", "Histogram",
                     "MetricError", "MetricsRegistry", "Timer",
                     "snapshot_quantile"),
                    ".metrics"),
    **dict.fromkeys(("RunReport", "run_report"), ".report"),
    **dict.fromkeys(("TimeSeries", "TimeSeriesRecorder"), ".timeseries"),
    **dict.fromkeys(("SpanMinter", "causal_chains", "span_name"),
                    ".spans"),
    **dict.fromkeys(("NULL_TELEMETRY", "Telemetry"), ".telemetry"),
    **dict.fromkeys(("Ring", "TraceBuffer", "TraceKind", "TraceRecord"),
                    ".trace"),
})
