"""The experiment harness: tables, paper values, shape assertions.

Every benchmark regenerates one of the paper's tables or figures.  The
harness renders results in the same row layout the paper reports, prints a
side-by-side with the published numbers where they exist, and provides
*shape* assertions — who wins, by what order of magnitude — because the
absolute numbers of a 1998 twin-Pentium-Pro testbed are not reproducible
on a Python simulator (see DESIGN.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Table 1 of the paper: "Time and simulation overhead on several
#: configurations of the WubbleU example".  The local/word entry is
#: unreadable in the surviving copy of the paper (the scan drops the
#: number); it is recorded as None.
PAPER_TABLE1: Dict[str, Optional[float]] = {
    "HotJava": 0.54,
    "local word passage": None,
    "local packet passage": 43.1,
    "remote word passage": 604.0,
    "remote packet passage": 80.3,
}


def format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value == 0:
        return "0 s"
    if value < 1e-3:
        return f"{value * 1e6:.1f} us"
    if value < 1:
        return f"{value * 1e3:.1f} ms"
    if value < 120:
        return f"{value:.2f} s"
    return f"{value:.0f} s"


def format_bytes(value: int) -> str:
    if value < 2048:
        return f"{value} B"
    if value < 2 * 1024 * 1024:
        return f"{value / 1024:.1f} KB"
    return f"{value / (1024 * 1024):.2f} MB"


def format_count(value: int) -> str:
    if value < 10_000:
        return str(value)
    if value < 10_000_000:
        return f"{value / 1000:.1f}k"
    return f"{value / 1e6:.2f}M"


@dataclass
class Table:
    """A printable experiment table."""

    title: str
    columns: List[str]
    rows: List[List[str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"{self.title}: row has {len(cells)} cells, "
                f"table has {len(self.columns)} columns")
        self.rows.append([str(cell) for cell in cells])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i])
                             for i, cell in enumerate(cells)).rstrip()

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        parts = [f"== {self.title} ==", line(self.columns), rule]
        parts.extend(line(row) for row in self.rows)
        for note in self.notes:
            parts.append(f"  * {note}")
        return "\n".join(parts)

    def show(self) -> str:
        text = self.render()
        print("\n" + text + "\n")
        return text

    def save(self, name: str, directory: Optional[str] = None) -> str:
        """Write the rendered table to ``<name>.txt`` under
        ``$PIA_BENCH_RESULTS`` (default ``benchmarks/results``), or
        ``directory``; returns the path."""
        if directory is None:
            directory = os.environ.get("PIA_BENCH_RESULTS",
                                       os.path.join("benchmarks", "results"))
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render() + "\n")
        return path


# ---------------------------------------------------------------------------
# shape assertions
# ---------------------------------------------------------------------------

def assert_order(values: Dict[str, float], *ranking: str) -> None:
    """Assert ``values[ranking[0]] < values[ranking[1]] < ...``."""
    for earlier, later in zip(ranking, ranking[1:]):
        assert values[earlier] < values[later], (
            f"shape violation: expected {earlier} "
            f"({values[earlier]:g}) < {later} ({values[later]:g})")


def assert_factor(values: Dict[str, float], small: str, big: str,
                  at_least: float) -> None:
    """Assert ``values[big] >= at_least * values[small]``."""
    assert values[big] >= at_least * values[small], (
        f"shape violation: {big} ({values[big]:g}) is not >= "
        f"{at_least}x {small} ({values[small]:g})")
