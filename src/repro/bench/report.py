"""System activity reports: "view all parts of the system" in one table.

The paper's first requirement is that the designer can view every part of
the system — hardware, software, simulation.  These helpers summarise a
finished (or paused) run: per-component virtual activity, per-net traffic,
per-interface transfer volumes, per-channel synchronisation costs and the
checkpoint footprint — for a single-host :class:`Simulator` or a whole
:class:`CoSimulation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.subsystem import Subsystem
from .harness import Table, format_bytes, format_count, format_seconds


@dataclass
class ActivityReport:
    """The assembled summary; render with :meth:`tables` or ``str()``."""

    title: str
    components: List[dict] = field(default_factory=list)
    nets: List[dict] = field(default_factory=list)
    interfaces: List[dict] = field(default_factory=list)
    channels: List[dict] = field(default_factory=list)
    subsystems: List[dict] = field(default_factory=list)

    def tables(self) -> List[Table]:
        made: List[Table] = []
        table = Table(f"{self.title}: subsystems",
                      ["subsystem", "node", "time", "events", "stalls",
                       "checkpoints"])
        for row in self.subsystems:
            table.add(row["name"], row["node"],
                      format_seconds(row["time"]),
                      format_count(row["events"]),
                      format_count(row["stalls"]),
                      format_count(row["checkpoints"]))
        made.append(table)

        table = Table(f"{self.title}: components",
                      ["component", "subsystem", "local time", "status",
                       "level"])
        for row in self.components:
            table.add(row["name"], row["subsystem"],
                      format_seconds(row["local_time"]), row["status"],
                      row["level"])
        made.append(table)

        if self.nets:
            table = Table(f"{self.title}: nets", ["net", "subsystem",
                                                  "posts"])
            for row in self.nets:
                table.add(row["name"], row["subsystem"],
                          format_count(row["posts"]))
            made.append(table)

        if self.interfaces:
            table = Table(f"{self.title}: interfaces",
                          ["interface", "level", "transfers", "chunks",
                           "payload"])
            for row in self.interfaces:
                table.add(row["name"], row["level"],
                          format_count(row["transfers"]),
                          format_count(row["chunks"]),
                          format_bytes(row["payload"]))
            made.append(table)

        if self.channels:
            table = Table(f"{self.title}: channels",
                          ["channel", "mode", "forwarded", "injected",
                           "safe-time reqs", "stragglers"])
            for row in self.channels:
                table.add(row["name"], row["mode"],
                          format_count(row["forwarded"]),
                          format_count(row["injected"]),
                          format_count(row["safe_time"]),
                          format_count(row["stragglers"]))
            made.append(table)
        return made

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self.tables())

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _collect_subsystem(report: ActivityReport, subsystem: Subsystem) -> None:
    node = subsystem.node.name if subsystem.node is not None else "-"
    report.subsystems.append({
        "name": subsystem.name,
        "node": node,
        "time": subsystem.now,
        "events": subsystem.scheduler.dispatched,
        "stalls": subsystem.scheduler.stalls,
        "checkpoints": len(subsystem.checkpoints),
    })
    for name in sorted(subsystem.components):
        component = subsystem.components[name]
        if name.startswith("__channel"):
            continue
        status = "finished" if component.finished else (
            "blocked" if component.is_blocked() else "idle")
        report.components.append({
            "name": name,
            "subsystem": subsystem.name,
            "local_time": component.local_time,
            "status": status,
            "level": component.runlevel,
        })
        for iface in component.interfaces.values():
            report.interfaces.append({
                "name": iface.full_name,
                "level": iface.level,
                "transfers": iface.sent_transfers,
                "chunks": iface.sent_chunks,
                "payload": iface.sent_payload_bytes,
            })
    for name in sorted(subsystem.nets):
        report.nets.append({
            "name": name,
            "subsystem": subsystem.name,
            "posts": subsystem.nets[name].posts,
        })
    for channel_id in sorted(subsystem.channels):
        endpoint = subsystem.channels[channel_id]
        report.channels.append({
            "name": f"{channel_id}@{subsystem.name}",
            "mode": endpoint.mode.value,
            "forwarded": endpoint.forwarded,
            "injected": endpoint.injected,
            "safe_time": endpoint.safe_time_requests,
            "stragglers": endpoint.stragglers,
        })


def activity_report(target, *, title: Optional[str] = None) -> ActivityReport:
    """Summarise a system — a Simulator or a CoSimulation — through its
    ``subsystems``; a system of one subsystem is titled by it."""
    subsystems = getattr(target, "subsystems", None)
    if subsystems is None:
        raise TypeError(f"cannot report on {type(target).__name__}: "
                        "expected a system with a subsystems mapping")
    if title is None:
        title = next(iter(subsystems)) if len(subsystems) == 1 \
            else "co-simulation"
    report = ActivityReport(title)
    for name in sorted(subsystems):
        _collect_subsystem(report, subsystems[name])
    return report
