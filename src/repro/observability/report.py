"""The run report: one document describing a finished (or paused) run.

Assembles per-subsystem virtual-time progress, stall/rollback/checkpoint
tallies and per-link traffic totals from the telemetry layer and the
simulation objects, and renders them as text or JSON.  The deterministic
portion (:meth:`RunReport.to_dict` without timings) is bit-identical
across two runs of the same scenario under the in-memory transport —
which is what makes reports diffable regression artefacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from . import export as _export
from . import metrics as _metrics
from .health import finalize_health
from .merge import (
    merge_counters,
    merge_gauges,
    merge_health_rows,
    merge_histograms,
    merge_link_rows,
    merge_timings,
    merge_trace_records,
    series_key,
)
from .telemetry import NULL_TELEMETRY, Telemetry
from .trace import record_dicts


@dataclass
class RunReport:
    """The assembled summary of one run."""

    title: str
    #: name, node, time, dispatched, stalls, checkpoints, safe_time_requests
    subsystems: List[dict] = field(default_factory=list)
    #: src, dst, model, messages, bytes, delay, frames
    links: List[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    #: name -> {count, total, min, max, mean, buckets} distributions
    #: (batch sizes, frame bytes); deterministic like counters.
    histograms: dict = field(default_factory=dict)
    #: (straggler_time, snapshot_id, restored_time) per recovery.
    rollbacks: List[dict] = field(default_factory=list)
    #: One :class:`~repro.distributed.migration.MigrationRecord` dict per
    #: live migration or supervised failover (multiprocess runs under
    #: ``failure_policy="recover"``; empty otherwise).  ``wall_pause`` and
    #: ``snapshot_bytes`` are measurements, not simulation state.
    migrations: List[dict] = field(default_factory=list)
    #: Exact fault/retry counters from the fault injector, when one is
    #: attached — deterministic for a given plan seed, unlike
    #: :attr:`counters` which may lose ticks under thread contention.
    faults: dict = field(default_factory=dict)
    trace_counts: dict = field(default_factory=dict)
    trace_dropped: int = 0
    #: Per-node trace drops (multiprocess runs; empty otherwise).
    trace_dropped_by_node: dict = field(default_factory=dict)
    #: subsystem, node, peer_node, waits, waited, critical — which peer's
    #: traffic each subsystem spent its virtual time waiting for (the
    #: dispatch-gap profiler pass of :func:`.export.stall_attribution`).
    stall_attribution: List[dict] = field(default_factory=list)
    #: The full merged trace (record dicts incl. wall clocks).  Excluded
    #: from to_dict() unless asked for — it is bulky, and the wall field
    #: is nondeterministic.
    trace_records: List[dict] = field(default_factory=list)
    #: Wall-clock timers — nondeterministic, excluded from to_dict()
    #: unless asked for.
    timings: dict = field(default_factory=dict)
    #: Scored per-directed-link health rows (see
    #: :func:`~.health.finalize_health`), populated when a
    #: :class:`~.health.LinkHealthMonitor` was attached.  Rates and
    #: queue depths are wall-clock measurements, so the rows live
    #: outside the deterministic projection, like :attr:`timings`.
    link_health: List[dict] = field(default_factory=list)
    #: ``{name: {"points": [[t, value], ...]}}`` from an attached
    #: :class:`~.timeseries.TimeSeriesRecorder` (multiprocess runs merge
    #: per-worker dumps under ``node/metric`` keys).  Sampling pace is
    #: executor-dependent, so excluded from to_dict() unless asked for.
    timeseries: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self, *, include_timings: bool = False,
                include_trace: bool = False,
                include_health: bool = False,
                include_series: bool = False) -> dict:
        data = {
            "title": self.title,
            "subsystems": self.subsystems,
            "links": self.links,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "rollbacks": self.rollbacks,
            "migrations": self.migrations,
            "faults": self.faults,
            "trace": {"counts": self.trace_counts,
                      "dropped": self.trace_dropped,
                      "dropped_by_node": self.trace_dropped_by_node},
            "stall_attribution": self.stall_attribution,
        }
        if include_timings:
            data["timings"] = self.timings
        if include_health:
            data["link_health"] = self.link_health
        if include_series:
            data["timeseries"] = self.timeseries
        if include_trace:
            # Bulky and wall-clock-bearing; opt-in only.  The wall field
            # is stripped so the document stays diffable.
            data["trace"]["records"] = [
                {k: v for k, v in record.items() if k != "wall"}
                for record in self.trace_records]
        return data

    def to_json(self, *, indent: Optional[int] = 2, **include) -> str:
        """:meth:`to_dict` as JSON; ``include`` are its ``include_*``
        switches."""
        return json.dumps(self.to_dict(**include), indent=indent,
                          sort_keys=True)

    def save_json(self, path: str, **kwargs) -> None:
        """Write :meth:`to_json` (same keyword arguments) to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(**kwargs) + "\n")

    # ------------------------------------------------------------------
    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def link_totals(self) -> dict:
        return {
            "messages": sum(row["messages"] for row in self.links),
            "bytes": sum(row["bytes"] for row in self.links),
            "delay": sum(row["delay"] for row in self.links),
            "frames": sum(row.get("frames", row["messages"])
                          for row in self.links),
        }

    # ------------------------------------------------------------------
    def render(self) -> str:
        out: List[str] = [f"== RunReport: {self.title} =="]

        def section(headers: List[str], rows: List[List[str]]) -> None:
            """One table after a blank line; nothing for no rows."""
            if rows:
                out.extend(("", _table(headers, rows)))

        def _q(row, q):
            value = _metrics.snapshot_quantile(row, q)
            return "-" if value is None else f"{value:g}"

        section(["subsystem", "node", "time", "events", "stalls",
                 "ckpts", "st-reqs"],
                [[row["name"], row["node"], f"{row['time']:g}",
                  str(row["dispatched"]), str(row["stalls"]),
                  str(row["checkpoints"]), str(row["safe_time_requests"])]
                 for row in self.subsystems])
        section(["link", "model", "msgs", "frames", "bytes", "delay"],
                [[f"{row['src']}->{row['dst']}", row["model"],
                  str(row["messages"]),
                  str(row.get("frames", row["messages"])),
                  str(row["bytes"]), f"{row['delay']:.6g}s"]
                 for row in self.links])
        section(["rollback", "straggler t", "snapshot", "restored to"],
                [[str(i + 1), f"{row['straggler_time']:g}",
                  row["snapshot_id"], f"{row['restored_time']:g}"]
                 for i, row in enumerate(self.rollbacks)])
        section(["move", "node", "reason", "t", "epoch", "pause",
                 "bytes", "replayed"],
                [[row["kind"], row["node"], row["reason"],
                  f"{row['at_global_time']:g}", str(row["epoch"]),
                  f"{row['wall_pause']:.3f}s", str(row["snapshot_bytes"]),
                  str(row["replayed_messages"])]
                 for row in self.migrations])
        section(["fault/retry", "count"],
                [[name, str(value)]
                 for name, value in sorted(self.faults.items())])
        section(["counter", "value"],
                [[name, str(value)]
                 for name, value in sorted(self.counters.items())])
        section(["histogram", "n", "mean", "p50", "p95", "p99", "min",
                 "max"],
                [[name, str(row["count"]),
                  "-" if row["mean"] is None else f"{row['mean']:.4g}",
                  _q(row, 0.50), _q(row, 0.95), _q(row, 0.99),
                  "-" if row["min"] is None else f"{row['min']:g}",
                  "-" if row["max"] is None else f"{row['max']:g}"]
                 for name, row in sorted(self.histograms.items())])
        section(["waiting subsystem", "node", "on peer node", "waits",
                 "waited", "critical"],
                [[row["subsystem"], row["node"], row["peer_node"],
                  str(row["waits"]), f"{row['waited']:g}",
                  "*" if row["critical"] else ""]
                 for row in self.stall_attribution])
        section(["link health", "msgs", "ewma delay", "rate", "queue",
                 "stall%", "score", "advice"],
                [[f"{row['src']}->{row['dst']}", str(row["messages"]),
                  f"{row['ewma_delay']:.3g}s", f"{row['rate']:.4g}/s",
                  f"{row['queue_depth']:.3g}",
                  f"{100.0 * row['stall_fraction']:.1f}",
                  f"{row['score']:.2f}", row["recommendation"]]
                 for row in self.link_health])
        if self.timeseries:
            points = sum(len(series["points"])
                         for series in self.timeseries.values())
            out.append("")
            out.append(f"time-series: {len(self.timeseries)} series, "
                       f"{points} points")
        if self.trace_counts:
            out.append("")
            dropped = f" (dropped {self.trace_dropped})" \
                if self.trace_dropped else ""
            if self.trace_dropped_by_node and any(
                    self.trace_dropped_by_node.values()):
                per_node = ", ".join(
                    f"{node}={count}" for node, count
                    in sorted(self.trace_dropped_by_node.items()))
                dropped = f" (dropped {self.trace_dropped}: {per_node})"
            out.append("trace records" + dropped + ": " + ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.trace_counts.items())))
        section(["timer", "total", "blocks"],
                [[name, f"{row['total_seconds']:.4f}s", str(row["count"])]
                 for name, row in sorted(self.timings.items())])
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), rule] + [line(row) for row in rows])


# ----------------------------------------------------------------------
# assembly: process bundles in, one report out
# ----------------------------------------------------------------------
def _subsystem_row(subsystem) -> dict:
    node = subsystem.node.name if subsystem.node is not None else "-"
    return {
        "name": subsystem.name,
        "node": node,
        "time": subsystem.now,
        "dispatched": subsystem.scheduler.dispatched,
        "stalls": subsystem.scheduler.stalls,
        "checkpoints": len(subsystem.checkpoints),
        "safe_time_requests": sum(ep.safe_time_requests
                                  for ep in subsystem.channels.values()),
    }


def _link_rows(transport) -> List[dict]:
    accounting = getattr(transport, "accounting", None)
    if accounting is None:
        return []
    return [{"src": src, "dst": dst, "model": model, "messages": messages,
             "bytes": nbytes, "delay": delay, "frames": frames}
            for src, dst, model, messages, nbytes, delay, frames
            in accounting.report()]


def bundle(telemetry: Telemetry, subsystems=(), *, node: Optional[str] = None,
           transport=None, injector=None, recovery=None,
           migrations=()) -> dict:
    """What one process contributes to a report, as plain picklable data.

    ``node`` names the node this process *is* (a multiprocess worker);
    ``None`` when the bundle is a whole in-process run, or the
    coordinator's own.  :func:`fold` reads the *placement* keys —
    ``subsystems``, ``links``, ``gauges``, ``series``, ``health`` — of
    live bundles only; every other key is *activity*, which stays counted
    after the process has handed its node to another (DESIGN.md §5).
    """
    snapshot = telemetry.registry.snapshot()
    series, health = telemetry.series, telemetry.health
    return {
        "node": node,
        "subsystems": [_subsystem_row(each) for each in subsystems],
        "links": _link_rows(transport),
        "gauges": snapshot["gauges"],
        "series": series.to_dict() if series is not None else {},
        "health": health.rows() if health is not None else [],
        "counters": snapshot["counters"],
        "histograms": snapshot["histograms"],
        "faults": injector.summary() if injector is not None else {},
        "trace_counts": telemetry.trace_buffer.counts_by_kind(),
        "trace_dropped": telemetry.trace_buffer.dropped,
        "trace": record_dicts(telemetry.trace_buffer),
        "timings": telemetry.registry.timings(),
        "rollbacks": [
            {"straggler_time": straggler_time, "snapshot_id": snapshot_id,
             "restored_time": restored_time}
            for straggler_time, snapshot_id, restored_time
            in (recovery.rollbacks if recovery is not None else ())],
        "migrations": [record.to_dict() for record in migrations],
    }


def fold(title: str, bundles: List[dict],
         superseded: Iterable[dict] = ()) -> RunReport:
    """Fold process bundles into one :class:`RunReport`.

    ``bundles`` are the live processes' (one, for an in-process run);
    ``superseded`` the parting bundles of workers a migration retired,
    oldest first: their activity is summed in, their placement is not.

    Several bundles fold differently from one in two places, both because
    processes share no clock or namespace: a named bundle's series stay
    apart under ``node/metric`` keys (points sampled at unaligned times
    cannot be summed), and several trace streams are interleaved by
    ``(time, node, seq)`` where a lone buffer keeps its recording order.
    """
    report = RunReport(title)
    streams: Dict[Optional[str], List[dict]] = {}
    links: List[dict] = []
    health: List[dict] = []
    for part in (*superseded, *bundles):
        node = part["node"]
        merge_counters(report.counters, part["counters"])
        merge_histograms(report.histograms, part["histograms"])
        merge_counters(report.faults, part["faults"])
        merge_counters(report.trace_counts, part["trace_counts"])
        merge_timings(report.timings, part["timings"])
        report.trace_dropped += part["trace_dropped"]
        if node is not None:
            report.trace_dropped_by_node[node] = part["trace_dropped"] \
                + report.trace_dropped_by_node.get(node, 0)
        # Superseded first, so a node's stream reads oldest to newest:
        # post-migrate receives chain to spans only the parting bundle
        # recorded.
        streams.setdefault(node, []).extend(part["trace"])
        report.rollbacks.extend(part["rollbacks"])
        report.migrations.extend(part["migrations"])
    for part in bundles:
        report.subsystems.extend(part["subsystems"])
        links.extend(part["links"])
        merge_gauges(report.gauges, part["gauges"])
        health.extend(part["health"])
        for name, series in part["series"].items():
            report.timeseries[series_key(part["node"], name)] = series
    report.subsystems.sort(key=lambda row: row["name"])
    report.links = merge_link_rows(links)
    for section in ("counters", "gauges", "histograms", "faults", "timings",
                    "trace_counts", "timeseries"):
        setattr(report, section,
                dict(sorted(getattr(report, section).items())))
    if len(streams) == 1:
        report.trace_records, = streams.values()
    else:
        report.trace_records = merge_trace_records(streams)
    report.stall_attribution = _export.stall_attribution(
        report.trace_records, nodes=_export.subject_nodes(report))
    if health:
        report.link_health = finalize_health(
            merge_health_rows(health),
            stall_attribution=report.stall_attribution,
            subsystems=report.subsystems)
    return report


def run_report(target, *, title: Optional[str] = None) -> RunReport:
    """Build a :class:`RunReport` for a system — a Simulator (one
    subsystem) or a CoSimulation (many).

    ``target`` is read through its ``subsystems`` mapping and, where it
    has them, its ``telemetry``, ``transport``, fault injector and
    ``recovery``; the report is the :func:`fold` of the one
    :func:`bundle` this process contributes.
    """
    subsystems = getattr(target, "subsystems", None)
    if subsystems is None:
        raise TypeError(f"cannot report on {type(target).__name__}: "
                        "expected a system with a subsystems mapping")
    telemetry: Telemetry = getattr(target, "telemetry", NULL_TELEMETRY)
    transport = getattr(target, "transport", None)
    injector = getattr(target, "fault_injector", None)
    if injector is None:
        injector = getattr(transport, "fault_injector", None)
    return fold(title or "co-simulation", [bundle(
        telemetry, subsystems.values(), transport=transport,
        injector=injector, recovery=getattr(target, "recovery", None))])
