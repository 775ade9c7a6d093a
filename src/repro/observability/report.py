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
from .health import finalize_health, merge_health_rows
from .metrics import merge_histograms
from .telemetry import NULL_TELEMETRY, Telemetry
from .trace import record_dicts


@dataclass
class RunReport:
    """The assembled summary of one run."""

    title: str
    #: name, node, time, dispatched, stalls, checkpoints, safe_time_requests
    subsystems: List[dict] = field(default_factory=list)
    #: name, subsystem, local_time, status (finished/blocked/idle), level
    components: List[dict] = field(default_factory=list)
    #: name, subsystem, posts
    nets: List[dict] = field(default_factory=list)
    #: name (``component.interface``), level, transfers, chunks, payload
    interfaces: List[dict] = field(default_factory=list)
    #: One row per channel end, named ``channel@subsystem``: mode,
    #: forwarded, injected, safe_time (requests), stragglers
    channels: List[dict] = field(default_factory=list)
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
            "components": self.components,
            "nets": self.nets,
            "interfaces": self.interfaces,
            "channels": self.channels,
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
        section(["component", "subsystem", "local time", "status", "level"],
                [[row["name"], row["subsystem"], f"{row['local_time']:g}",
                  row["status"], row["level"]] for row in self.components])
        section(["net", "subsystem", "posts"],
                [[row["name"], row["subsystem"], str(row["posts"])]
                 for row in self.nets])
        section(["interface", "level", "transfers", "chunks", "payload"],
                [[row["name"], row["level"], str(row["transfers"]),
                  str(row["chunks"]), str(row["payload"])]
                 for row in self.interfaces])
        section(["channel end", "mode", "forwarded", "injected", "st-reqs",
                 "stragglers"],
                [[row["name"], row["mode"], str(row["forwarded"]),
                  str(row["injected"]), str(row["safe_time"]),
                  str(row["stragglers"])] for row in self.channels])
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
#: The per-part row sections of a bundle and a report.
PLACED_ROWS = ("subsystems", "components", "nets", "interfaces", "channels")


def _placement_rows(subsystems) -> Dict[str, List[dict]]:
    """The rows of every part the ``subsystems`` hold: one per subsystem,
    component (channel ends' own components aside), net, interface and
    channel end."""
    rows: Dict[str, List[dict]] = {section: [] for section in PLACED_ROWS}
    for subsystem in subsystems:
        rows["subsystems"].append({
            "name": subsystem.name,
            "node": subsystem.node.name if subsystem.node is not None
            else "-",
            "time": subsystem.now,
            "dispatched": subsystem.scheduler.dispatched,
            "stalls": subsystem.scheduler.stalls,
            "checkpoints": len(subsystem.checkpoints),
            "safe_time_requests": sum(ep.safe_time_requests
                                      for ep in subsystem.channels.values()),
        })
        for name, component in subsystem.components.items():
            if name.startswith("__channel"):
                continue
            rows["components"].append({
                "name": name,
                "subsystem": subsystem.name,
                "local_time": component.local_time,
                "status": "finished" if component.finished else (
                    "blocked" if component.is_blocked() else "idle"),
                "level": component.runlevel,
            })
            rows["interfaces"].extend({
                "name": iface.full_name,
                "level": iface.level,
                "transfers": iface.sent_transfers,
                "chunks": iface.sent_chunks,
                "payload": iface.sent_payload_bytes,
            } for iface in component.interfaces.values())
        rows["nets"].extend({"name": name, "subsystem": subsystem.name,
                             "posts": net.posts}
                            for name, net in subsystem.nets.items())
        rows["channels"].extend({
            "name": f"{channel_id}@{subsystem.name}",
            "mode": endpoint.mode.value,
            "forwarded": endpoint.forwarded,
            "injected": endpoint.injected,
            "safe_time": endpoint.safe_time_requests,
            "stragglers": endpoint.stragglers,
        } for channel_id, endpoint in subsystem.channels.items())
    return rows


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
    coordinator's own.  :func:`fold` reads the *placement* keys — the
    :data:`PLACED_ROWS`, ``links``, ``gauges``, ``series``, ``health`` —
    of live bundles only; every other key is *activity*, which stays counted
    after the process has handed its node to another (DESIGN.md §5).
    """
    snapshot = telemetry.registry.snapshot()
    series, health = telemetry.series, telemetry.health
    return {
        "node": node,
        **_placement_rows(subsystems),
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
    links: Dict[tuple, dict] = {}
    health: List[dict] = []
    for part in (*superseded, *bundles):
        node = part["node"]
        for section in ("counters", "faults", "trace_counts"):
            into = getattr(report, section)
            for name, value in part[section].items():
                into[name] = into.get(name, 0) + value
        merge_histograms(report.histograms, part["histograms"])
        for name, row in part["timings"].items():
            into = report.timings.setdefault(
                name, {"total_seconds": 0.0, "count": 0})
            into["total_seconds"] += row["total_seconds"]
            into["count"] += row["count"]
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
        for section in PLACED_ROWS:
            getattr(report, section).extend(part[section])
        # Every transport accounts only the traffic it *sent*, so summing
        # a directed link's rows never double-counts.
        for row in part["links"]:
            into = links.get((row["src"], row["dst"]))
            if into is None:
                links[row["src"], row["dst"]] = dict(row)
                continue
            for key in ("messages", "bytes", "delay"):
                into[key] += row[key]
            into["frames"] = into.get("frames", 0) \
                + row.get("frames", row["messages"])
        # A gauge is a level, not a tally: the highest one stands.
        for name, value in part["gauges"].items():
            report.gauges[name] = max(report.gauges.get(name, value), value)
        health.extend(part["health"])
        for name, series in part["series"].items():
            key = name if part["node"] is None else f"{part['node']}/{name}"
            report.timeseries[key] = series
    for section in PLACED_ROWS:
        getattr(report, section).sort(
            key=lambda row: (row.get("subsystem", ""), row["name"]))
    report.links = [links[key] for key in sorted(links)]
    for section in ("counters", "gauges", "histograms", "faults", "timings",
                    "trace_counts", "timeseries"):
        setattr(report, section,
                dict(sorted(getattr(report, section).items())))
    if len(streams) == 1:
        report.trace_records, = streams.values()
    else:
        # Each record tagged with its node; (time, node, seq) keeps every
        # node's own order (seq is per-telemetry monotone), and the
        # coordinator's untagged records sort first at equal times.
        report.trace_records = sorted(
            (record if node is None or record.get("node") == node
             else dict(record, node=node)
             for node, records in streams.items() for record in records),
            key=lambda r: (r.get("time", 0.0), r.get("node", ""),
                           r.get("seq", 0)))
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
