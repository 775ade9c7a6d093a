"""Unit tests for the metrics registry primitives."""

import pytest

from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Timer,
    snapshot_quantile,
)
from repro.observability.metrics import merge_histograms


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_inc_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_monotonic_negative_increment_rejected(self):
        c = Counter("c")
        c.inc(3)
        with pytest.raises(MetricError):
            c.inc(-1)
        assert c.value == 3

    def test_monotonic_under_many_increments(self):
        c = Counter("c")
        previous = c.value
        for n in (0, 1, 2, 0, 7, 1):
            c.inc(n)
            assert c.value >= previous
            previous = c.value
        assert c.value == 11


class TestGauge:
    def test_set(self):
        g = Gauge("g")
        g.set(10.0)
        g.set(6.5)
        assert g.value == 6.5


class TestTimer:
    def test_add_external_measurement(self):
        t = Timer("t")
        t.add(1.5, blocks=3)
        assert t.count == 3
        assert t.total == 1.5


class TestRegistry:
    def test_counter_identity_by_name(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        b = reg.counter("x")
        assert a is b

    def test_snapshot_is_sorted_and_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("zz").inc(2)
        reg.counter("aa").inc(1)
        reg.gauge("mid").set(3.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["aa", "zz"]
        assert snap["counters"]["zz"] == 2
        assert snap["gauges"]["mid"] == 3.0

    def test_timings_reported_separately_from_snapshot(self):
        reg = MetricsRegistry()
        reg.timer("run").add(0.25, blocks=2)
        assert "run" not in reg.snapshot().get("counters", {})
        assert reg.timings() == {
            "run": {"total_seconds": 0.25, "count": 2}}


class TestHistogramQuantiles:
    def _histogram(self, samples):
        h = Histogram("h")
        for s in samples:
            h.observe(s)
        return h

    def test_quantile_is_bucket_bound_clamped_to_observed_range(self):
        h = self._histogram([3, 3, 3, 10])
        # rank 2 of 4 lands in the <=4 bucket, clamped up to min=3
        assert snapshot_quantile(h.snapshot(), 0.50) == 4.0
        # rank 4 lands in <=16, clamped down to max=10
        assert snapshot_quantile(h.snapshot(), 0.99) == 10.0

    def test_extremes_return_min_and_max(self):
        h = self._histogram([1, 7, 900])
        assert snapshot_quantile(h.snapshot(), 0.0) == 1.0
        assert snapshot_quantile(h.snapshot(), 1.0) == 900.0

    def test_empty_histogram_has_no_quantiles(self):
        h = self._histogram([])
        assert snapshot_quantile(h.snapshot(), 0.5) is None

    def test_snapshot_quantile_rejects_out_of_range(self):
        h = self._histogram([1])
        with pytest.raises(MetricError):
            snapshot_quantile(h.snapshot(), 1.5)
        with pytest.raises(MetricError):
            snapshot_quantile(h.snapshot(), -0.1)

    def test_overflow_bucket_uses_the_observed_max(self):
        h = self._histogram([5000, 6000])
        assert snapshot_quantile(h.snapshot(), 0.99) == 6000.0

    def test_quantile_over_merged_style_snapshot(self):
        # snapshot_quantile works on plain dicts, like cross-process
        # merges produce — no live Histogram needed.
        snap = {"count": 4, "min": 2, "max": 30,
                "buckets": {"<=2": 1, "<=4": 1, "<=16": 1, "<=32": 1}}
        assert snapshot_quantile(snap, 0.50) == 4.0
        assert snapshot_quantile(snap, 1.0) == 30.0


class TestMergeHistograms:
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
