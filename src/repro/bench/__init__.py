"""The experiment harness regenerating every table and figure."""

from .harness import (
    PAPER_TABLE1,
    Table,
    assert_factor,
    assert_order,
    format_bytes,
    format_count,
    format_seconds,
    ratio,
)
from .report import ActivityReport, activity_report
from .workloads import ring_of_pairs, streaming_pair

__all__ = [
    "ActivityReport", "activity_report",
    "PAPER_TABLE1", "Table", "assert_factor", "assert_order",
    "format_bytes", "format_count", "format_seconds", "ratio",
    "ring_of_pairs", "streaming_pair",
]
