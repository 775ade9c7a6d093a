"""Cross-process telemetry merging: the rules each metric kind follows."""

from repro.observability.merge import (
    merge_counters,
    merge_gauges,
    merge_histograms,
    merge_link_rows,
    merge_timings,
    merge_trace_records,
)


class TestCounters:
    def test_sums_and_creates(self):
        into = {"a": 1}
        merge_counters(into, {"a": 2, "b": 5})
        assert into == {"a": 3, "b": 5}

    def test_returns_target(self):
        into = {}
        assert merge_counters(into, {"x": 1}) is into


class TestGauges:
    def test_keeps_maximum(self):
        into = {"rounds": 10.0, "depth": 3.0}
        merge_gauges(into, {"rounds": 7.0, "depth": 9.0, "new": 1.0})
        assert into == {"rounds": 10.0, "depth": 9.0, "new": 1.0}


class TestHistograms:
    def test_merges_mass_and_recomputes_mean(self):
        into = {"h": {"count": 2, "total": 10.0, "min": 2.0, "max": 8.0,
                      "mean": 5.0, "buckets": {"<=8": 2}}}
        merge_histograms(into, {"h": {"count": 2, "total": 2.0, "min": 0.5,
                                      "max": 1.5, "mean": 1.0,
                                      "buckets": {"<=2": 2}}})
        merged = into["h"]
        assert merged["count"] == 4
        assert merged["total"] == 12.0
        assert merged["min"] == 0.5
        assert merged["max"] == 8.0
        assert merged["mean"] == 3.0
        assert merged["buckets"] == {"<=8": 2, "<=2": 2}

    def test_new_histogram_is_deep_copied(self):
        source = {"h": {"count": 1, "total": 1.0, "min": 1.0, "max": 1.0,
                        "mean": 1.0, "buckets": {"<=1": 1}}}
        into = {}
        merge_histograms(into, source)
        into["h"]["buckets"]["<=1"] = 99
        assert source["h"]["buckets"]["<=1"] == 1

    def test_none_bounds_from_empty_histograms(self):
        into = {"h": {"count": 0, "total": 0.0, "min": None, "max": None,
                      "mean": None, "buckets": {}}}
        merge_histograms(into, {"h": {"count": 1, "total": 3.0, "min": 3.0,
                                      "max": 3.0, "mean": 3.0,
                                      "buckets": {"<=4": 1}}})
        assert into["h"]["min"] == 3.0
        assert into["h"]["max"] == 3.0
        assert into["h"]["mean"] == 3.0


class TestLinkRows:
    def test_merges_by_directed_link_and_sorts(self):
        rows = [
            {"src": "b", "dst": "a", "model": "same-host", "messages": 1,
             "bytes": 10, "delay": 0.1, "frames": 1},
            {"src": "a", "dst": "b", "model": "same-host", "messages": 2,
             "bytes": 20, "delay": 0.2, "frames": 2},
            {"src": "a", "dst": "b", "model": "same-host", "messages": 3,
             "bytes": 30, "delay": 0.3, "frames": 1},
        ]
        merged = merge_link_rows(rows)
        assert [(r["src"], r["dst"]) for r in merged] == \
            [("a", "b"), ("b", "a")]
        ab = merged[0]
        assert (ab["messages"], ab["bytes"], ab["frames"]) == (5, 50, 3)
        assert abs(ab["delay"] - 0.5) < 1e-12

    def test_missing_frames_falls_back_to_messages(self):
        rows = [
            {"src": "a", "dst": "b", "model": "m", "messages": 2,
             "bytes": 1, "delay": 0.0, "frames": 2},
            {"src": "a", "dst": "b", "model": "m", "messages": 4,
             "bytes": 1, "delay": 0.0},
        ]
        assert merge_link_rows(rows)[0]["frames"] == 6


class TestTimings:
    def test_sums_totals_and_counts(self):
        into = {"run": {"total_seconds": 1.0, "count": 2}}
        merge_timings(into, {"run": {"total_seconds": 0.5, "count": 1},
                             "idle": {"total_seconds": 3.0, "count": 4}})
        assert into["run"] == {"total_seconds": 1.5, "count": 3}
        assert into["idle"] == {"total_seconds": 3.0, "count": 4}


class TestTraceRecords:
    def test_interleaves_streams_in_time_node_seq_order(self):
        merged = merge_trace_records({
            "n2": [{"seq": 1, "kind": "dispatch", "time": 1.0, "subject": "b"},
                   {"seq": 2, "kind": "dispatch", "time": 3.0, "subject": "b"}],
            "n1": [{"seq": 1, "kind": "dispatch", "time": 2.0, "subject": "a"},
                   {"seq": 2, "kind": "dispatch", "time": 2.0, "subject": "a"}],
        })
        assert [(r["node"], r["time"], r["seq"]) for r in merged] == [
            ("n2", 1.0, 1), ("n1", 2.0, 1), ("n1", 2.0, 2), ("n2", 3.0, 2)]

    def test_tags_every_record_with_its_node(self):
        merged = merge_trace_records({"n1": [{"seq": 1, "time": 0.0}]})
        assert merged[0]["node"] == "n1"

    def test_same_time_orders_by_node_then_seq(self):
        merged = merge_trace_records({
            "b": [{"seq": 1, "time": 5.0}],
            "a": [{"seq": 9, "time": 5.0}],
        })
        assert [r["node"] for r in merged] == ["a", "b"]

    def test_preserves_existing_node_tag(self):
        merged = merge_trace_records(
            {"n1": [{"seq": 1, "time": 0.0, "node": "n1"}]})
        assert merged == [{"seq": 1, "time": 0.0, "node": "n1"}]
