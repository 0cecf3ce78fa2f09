"""Registry semantics: instruments, labeled children, idempotency."""

import math

import pytest

from repro.harness.metrics import LatencyTracker
from repro.telemetry import (
    MetricRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
)


class TestCounter:
    def test_starts_at_zero_and_counts(self):
        """A counter reads its owner's state at export, never a copy."""
        state = {"n": 0}
        counter = MetricRegistry().counter("c")
        assert counter.value == 0
        counter.set_function(lambda: state["n"])
        state["n"] = 5
        assert counter.value == 5

    def test_has_no_push_side(self):
        assert not hasattr(MetricRegistry().counter("c"), "inc")
        assert not hasattr(NULL_COUNTER, "inc")

    def test_collected_children_appear_at_export(self):
        faults = {}
        family = MetricRegistry().counter("f", labelnames=("kind",))
        family.collect(lambda: {(kind,): n for kind, n in faults.items()})
        assert list(family.children()) == []
        faults["stall"] = 2
        (child,) = family.children()
        assert child.labels == {"kind": "stall"}
        faults["stall"] = 3
        assert child.value == 3


class TestGauge:
    def test_callback_tracks_source(self):
        state = {"n": 0}
        gauge = MetricRegistry().gauge("g")
        gauge.set_function(lambda: state["n"])
        state["n"] = 42
        assert gauge.value == 42


class TestLabels:
    def test_same_labels_same_child(self):
        family = MetricRegistry().counter("io", labelnames=("device", "kind"))
        a = family.labels(device="ssd", kind="random_read")
        b = family.labels(device="ssd", kind="random_read")
        assert a is b
        a.set_function(lambda: 3)
        assert b.value == 3

    def test_distinct_labels_distinct_children(self):
        family = MetricRegistry().counter("io", labelnames=("device",))
        family.labels(device="ssd").set_function(lambda: 1)
        assert family.labels(device="hdd").value == 0

    def test_wrong_labelnames_rejected(self):
        family = MetricRegistry().counter("io", labelnames=("device",))
        with pytest.raises(ValueError):
            family.labels(disk="ssd")

    def test_child_knows_its_labels(self):
        family = MetricRegistry().gauge("g", labelnames=("device",))
        child = family.labels(device="ssd")
        assert child.labels == {"device": "ssd"}


class TestRegistration:
    def test_same_name_returns_same_metric(self):
        registry = MetricRegistry()
        assert registry.counter("c") is registry.counter("c")
        family = registry.counter("f", labelnames=("a",))
        assert registry.counter("f", labelnames=("a",)) is family

    def test_kind_mismatch_raises(self):
        registry = MetricRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_labelname_mismatch_raises(self):
        registry = MetricRegistry()
        registry.counter("m", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("m", labelnames=("b",))
        with pytest.raises(ValueError):
            registry.counter("m")

    def test_get_and_snapshot(self):
        registry = MetricRegistry()
        registry.counter("c").set_function(lambda: 2)
        registry.histogram("h").observe(1.0)
        family = registry.counter("f", labelnames=("x",))
        family.labels(x="1").set_function(lambda: 1)
        rows = registry.export()
        by_name = {}
        for row in rows:
            by_name.setdefault(row["name"], []).append(row)
        assert by_name["c"][0]["value"] == 2
        assert by_name["h"][0]["value"]["count"] == 1
        assert by_name["f"][0]["labels"] == {"x": "1"}
        assert registry.get("c").value == 2
        assert registry.get("nope") is None


class TestHistogram:
    def test_percentiles_match_latency_tracker(self):
        """The two percentile implementations must agree exactly."""
        histogram = MetricRegistry().histogram("h")
        tracker = LatencyTracker()
        values = [((i * 7919) % 100) / 9.7 for i in range(500)]
        for value in values:
            histogram.observe(value)
            tracker.record("t", value)
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert histogram.percentile(q) == tracker.percentile(q)
        assert histogram.mean() == pytest.approx(tracker.mean())

    def test_cache_invalidated_on_observe(self):
        histogram = MetricRegistry().histogram("h")
        histogram.observe(1.0)
        assert histogram.percentile(100) == 1.0
        histogram.observe(9.0)
        assert histogram.percentile(100) == 9.0
        assert histogram.count == 2
        assert histogram.sum == 10.0

    def test_empty_is_nan(self):
        histogram = MetricRegistry().histogram("h")
        assert math.isnan(histogram.percentile(50))
        assert math.isnan(histogram.mean())

    def test_summary_keys(self):
        histogram = MetricRegistry().histogram("h")
        histogram.observe(2.0)
        assert set(histogram.summary()) == {"count", "mean", "p50", "p95",
                                            "p99"}


class TestNullRegistry:
    def test_factories_return_shared_singletons(self):
        assert NULL_REGISTRY.counter("a") is NULL_COUNTER
        assert NULL_REGISTRY.counter("b") is NULL_COUNTER
        assert NULL_REGISTRY.gauge("g") is NULL_GAUGE
        assert NULL_REGISTRY.histogram("h") is NULL_HISTOGRAM

    def test_labels_return_self_without_allocation(self):
        assert NULL_COUNTER.labels(device="ssd", kind="x") is NULL_COUNTER
        assert NULL_GAUGE.labels(anything="y") is NULL_GAUGE
        assert NULL_HISTOGRAM.labels(z="1") is NULL_HISTOGRAM

    def test_mutators_record_nothing(self):
        NULL_COUNTER.set_function(lambda: 100)
        NULL_COUNTER.collect(lambda: {("x",): 100})
        NULL_GAUGE.set_function(lambda: 9)
        NULL_HISTOGRAM.observe(3.0)
        assert NULL_COUNTER.value == 0.0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0
        assert math.isnan(NULL_HISTOGRAM.percentile(50))
        assert NULL_REGISTRY.export() == []
