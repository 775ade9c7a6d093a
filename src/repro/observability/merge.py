"""Merging telemetry from several processes into one report.

The multiprocess deployment runs one :class:`~.telemetry.Telemetry` per
worker process; at quiescence each worker serialises its deterministic
snapshot (counters, gauges, histograms, per-link traffic, fault counters,
trace tallies) back to the coordinator, which folds them into a single
:class:`~.report.RunReport` indistinguishable in shape from a
single-process run's.

Merging rules mirror each metric's semantics: counters, histogram mass,
link traffic, trace tallies and timer totals are *additive* across
processes; gauges are point-in-time values, so the merged gauge keeps the
maximum (the only order-free combination that stays meaningful for the
level-style gauges this repo records, e.g. ``executor.rounds``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


def merge_counters(into: Dict[str, int], add: Dict[str, int]) -> Dict[str, int]:
    """Fold counter map ``add`` into ``into`` (summing); returns ``into``."""
    for name, value in add.items():
        into[name] = into.get(name, 0) + value
    return into


def merge_gauges(into: Dict[str, float], add: Dict[str, float]) -> Dict[str, float]:
    """Fold gauge map ``add`` into ``into`` (keeping the maximum)."""
    for name, value in add.items():
        if name not in into or value > into[name]:
            into[name] = value
    return into


def series_key(node: Optional[str], name: str) -> str:
    """A named process's series stay apart under ``node/metric``: points
    sampled on unaligned clocks cannot be summed."""
    return name if node is None else f"{node}/{name}"


def merge_histograms(into: Dict[str, dict], add: Dict[str, dict]) -> Dict[str, dict]:
    """Fold histogram snapshots ``add`` into ``into``.

    Count, total and per-bucket tallies sum; min/max combine; the mean is
    recomputed from the merged mass.  Snapshots are the dicts produced by
    :meth:`~.metrics.Histogram.snapshot`.
    """
    for name, snap in add.items():
        have = into.get(name)
        if have is None:
            into[name] = {**snap, "buckets": dict(snap["buckets"])}
            continue
        have["count"] += snap["count"]
        have["total"] += snap["total"]
        for bound in ("min", "max"):
            theirs = snap[bound]
            if theirs is None:
                continue
            ours = have[bound]
            better = (min if bound == "min" else max)
            have[bound] = theirs if ours is None else better(ours, theirs)
        have["mean"] = (have["total"] / have["count"]) if have["count"] \
            else None
        buckets = have["buckets"]
        for label, tally in snap["buckets"].items():
            buckets[label] = buckets.get(label, 0) + tally
    return into


def merge_link_rows(rows: Iterable[dict]) -> List[dict]:
    """Combine per-link accounting rows from several transports.

    Rows (``src``/``dst``/``model``/``messages``/``bytes``/``delay``/
    ``frames``) merge by directed link; every transport only accounts the
    traffic it *sent*, so summing never double-counts.  Output is sorted
    by link for deterministic reports.
    """
    merged: Dict[tuple, dict] = {}
    for row in rows:
        key = (row["src"], row["dst"])
        have = merged.get(key)
        if have is None:
            merged[key] = dict(row)
            continue
        have["messages"] += row["messages"]
        have["bytes"] += row["bytes"]
        have["delay"] += row["delay"]
        have["frames"] = have.get("frames", 0) + row.get(
            "frames", row["messages"])
    return [merged[key] for key in sorted(merged)]


def merge_health_rows(rows: Iterable[dict]) -> List[dict]:
    """Combine raw link-health rows from several monitors.

    Like :func:`merge_link_rows`, every worker only measures the traffic
    it *sent*, so a directed link normally appears in exactly one input
    row; on collision the additive fields sum, EWMAs take a
    message-weighted average, and queue peaks take the max.  Output is
    sorted by directed link.
    """
    merged: Dict[tuple, dict] = {}
    for row in rows:
        key = (row["src"], row["dst"])
        have = merged.get(key)
        if have is None:
            merged[key] = dict(row)
            continue
        ours, theirs = have["messages"], row["messages"]
        total = ours + theirs
        for ewma in ("ewma_delay", "queue_depth"):
            if total:
                have[ewma] = (have.get(ewma, 0.0) * ours
                              + row.get(ewma, 0.0) * theirs) / total
        for field in ("messages", "frames", "bytes", "delay", "rate"):
            have[field] = have.get(field, 0) + row.get(field, 0)
        have["queue_peak"] = max(have.get("queue_peak", 0),
                                 row.get("queue_peak", 0))
    return [merged[key] for key in sorted(merged)]


def merge_timings(into: Dict[str, dict], add: Dict[str, dict]) -> Dict[str, dict]:
    """Fold timer maps (``total_seconds``/``count``) by summing."""
    for name, row in add.items():
        have = into.get(name)
        if have is None:
            into[name] = dict(row)
        else:
            have["total_seconds"] += row["total_seconds"]
            have["count"] += row["count"]
    return into


def merge_trace_records(per_node: Dict[Optional[str], Iterable[dict]]
                        ) -> List[dict]:
    """Interleave per-node trace buffers into one stable stream.

    ``per_node`` maps node name to that worker's trace records (the
    dicts from :meth:`~.trace.TraceRecord.to_dict`).  Every record is
    tagged with its node and the streams are merged in ``(time, node,
    seq)`` order — deterministic across runs, and preserving each node's
    own record order (``seq`` is per-telemetry monotone), so per-subject
    subsequences match what a single-process run would record.  A stream
    under the key ``None`` belongs to no node (the coordinator's own):
    its records stay untagged and sort ahead of any node's at equal
    times.
    """
    merged: List[dict] = []
    for node, records in per_node.items():
        for record in records:
            if node is not None and record.get("node") != node:
                record = dict(record, node=node)
            merged.append(record)
    merged.sort(key=lambda r: (r.get("time", 0.0), r.get("node", ""),
                               r.get("seq", 0)))
    return merged
