"""Compare two ledger documents: ``compare.py A.json B.json``.

``A`` is the parent (or the first A/A set), ``B`` the change.  For every
(workload, end-to-end metric) pair one row is printed with both values
(the best of the samples, as ``run.py`` reports them), both
interquartile ranges and a verdict against the metric's bound from
``BENCHMARK.json``:

``ok``          B's value is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the spread of either side is wider than the bound and
                the two sides' samples overlap, so the runs cannot tell.

``net_delay_s`` and ``failed_share`` are exact: any increase regresses.
Exits 1 on any ``regressed``, 2 when the documents cannot be compared
(different backend, core count, seed or sizes).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Tuple

from _paths import ROOT


def quartiles(samples: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], *, better: str,
            bound: float) -> Tuple[str, float]:
    """Judge samples ``b`` against ``a``; returns (verdict, worsening)
    with the worsening as a share of A's value (negative = better)."""
    sign, pick = (1.0, min) if better == "lower" else (-1.0, max)
    a_q1, __, a_q3 = quartiles(a)
    b_q1, __, b_q3 = quartiles(b)
    worse = sign * (pick(b) - pick(a)) / pick(a)
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / pick(a)
    if spread > bound:
        b_always_better = (max(b) < min(a)) if better == "lower" \
            else (min(b) > max(a))
        b_always_worse = (min(b) > max(a)) if better == "lower" \
            else (max(b) < min(a))
        if b_always_better:
            return "ok", worse
        if not (b_always_worse and worse > bound):
            return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def refuse_reason(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Why the two documents must not be compared ('' if they may)."""
    for key in ("backend", "nproc"):
        if a["env"][key] != b["env"][key]:
            return f"{key} differs: {a['env'][key]} vs {b['env'][key]}"
    if len(a["env"]["affinity"]) != len(b["env"]["affinity"]):
        return "usable core count differs"
    for key in ("seed", "scale"):
        if a[key] != b[key]:
            return f"{key} differs: {a[key]} vs {b[key]}"
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        if a["workloads"][name].get("sizes") != \
                b["workloads"][name].get("sizes"):
            return f"sizes of {name} differ"
    if not set(a["workloads"]) & set(b["workloads"]):
        return "no workload in common"
    return ""


def compare(a: Dict[str, Any], b: Dict[str, Any],
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) the two documents share."""
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for spec in benchmark["end_to_end"]:
            ea = wa["end_to_end"].get(spec["name"])
            eb = wb["end_to_end"].get(spec["name"])
            if ea is None or eb is None:
                continue
            outcome, worse = verdict(ea["samples"], eb["samples"],
                                     better=spec["better"],
                                     bound=spec["bound"])
            rows.append({"workload": name, "metric": spec["name"],
                         "a": (ea["value"],) + quartiles(ea["samples"])[::2],
                         "b": (eb["value"],) + quartiles(eb["samples"])[::2],
                         "worse": worse, "verdict": outcome})
        for metric in ("net_delay_s", "failed_share"):
            va, vb = wa.get(metric, 0.0), wb.get(metric, 0.0)
            rows.append({"workload": name, "metric": metric,
                         "a": (va, va, va), "b": (vb, vb, vb),
                         "worse": vb - va,
                         "verdict": "regressed" if vb > va else "ok"})
        if wa.get("exact") != wb.get("exact"):
            # Not a verdict of its own: a change may mean to move a
            # count.  But a speed-only change must not, so say it.
            print(f"note: exact counts of {name} differ: "
                  f"{wa.get('exact')} vs {wb.get('exact')}")
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    reason = refuse_reason(a, b)
    if reason:
        print(f"refusing to compare: {reason}")
        return 2
    rows = compare(a, b, benchmark)
    print(f"{'workload':<22} {'metric':<13} {'A value [q1, q3]':>34} "
          f"{'B value [q1, q3]':>34} {'worse':>8}  verdict")
    for row in rows:
        cells = ["{:.5g} [{:.5g}, {:.5g}]".format(*side)
                 for side in (row["a"], row["b"])]
        print(f"{row['workload']:<22} {row['metric']:<13} {cells[0]:>34} "
              f"{cells[1]:>34} {row['worse']:>+8.3f}  {row['verdict']}")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
