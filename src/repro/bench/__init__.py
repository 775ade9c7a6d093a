"""The experiment harness regenerating every table and figure."""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("PAPER_TABLE1", "Table", "assert_factor", "assert_order",
                     "format_bytes", "format_count", "format_seconds"),
                    ".harness"),
    **dict.fromkeys(("ring_of_pairs", "streaming_pair"), ".workloads"),
})
