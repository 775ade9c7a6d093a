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
from .workloads import ring_of_pairs, streaming_pair

__all__ = [
    "PAPER_TABLE1", "Table", "assert_factor", "assert_order",
    "format_bytes", "format_count", "format_seconds", "ratio",
    "ring_of_pairs", "streaming_pair",
]
