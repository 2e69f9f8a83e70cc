"""The metrics registry: instruments, snapshots, merging, rendering."""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.obs.metrics import SECONDS_BUCKETS


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help", ("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.5
        assert counter.value(kind="b") == 1.0
        assert counter.total() == 4.5

    def test_unlabeled(self):
        counter = MetricsRegistry().counter("repro_plain_total")
        counter.inc()
        assert counter.value() == 1.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_label_set_must_match(self):
        counter = MetricsRegistry().counter("repro_test_total", "", ("kind",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc()
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(kind="a", extra="b")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4.0


class TestHistogram:
    def test_bucket_placement(self):
        histogram = MetricsRegistry().histogram(
            "repro_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(55.55)

    def test_time_context_manager(self):
        histogram = MetricsRegistry().histogram("repro_seconds")
        with histogram.time():
            pass
        assert histogram.count() == 1
        assert histogram.sum() >= 0.0

    def test_default_buckets_are_seconds(self):
        histogram = MetricsRegistry().histogram("repro_seconds")
        assert histogram.buckets == SECONDS_BUCKETS

    def test_duplicate_buckets_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MetricsRegistry().histogram("repro_seconds", buckets=(1.0, 1.0))


class TestRegistry:
    def test_getters_are_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_total", "", ("kind",))
        second = registry.counter("repro_total", "different help", ("kind",))
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("repro_thing")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing", "", ("a",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("repro_thing", "", ("b",))

    def test_thread_safety_smoke(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_total")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 4000.0


class TestSnapshotAndMerge:
    def test_merge_adds_counters_and_histograms(self):
        source = MetricsRegistry()
        source.counter("repro_total", "", ("kind",)).inc(3, kind="a")
        source.histogram("repro_seconds").observe(0.2)
        target = MetricsRegistry()
        target.counter("repro_total", "", ("kind",)).inc(1, kind="a")
        target.merge(source.snapshot())
        target.merge(source.snapshot())
        assert target.counter("repro_total", "", ("kind",)).value(kind="a") == 7.0
        assert target.histogram("repro_seconds").count() == 2

    def test_merge_overwrites_gauges(self):
        source = MetricsRegistry()
        source.gauge("repro_depth").set(9)
        target = MetricsRegistry()
        target.gauge("repro_depth").set(2)
        target.merge(source.snapshot())
        assert target.gauge("repro_depth").value() == 9.0

    def test_merge_rejects_bucket_mismatch(self):
        source = MetricsRegistry()
        source.histogram("repro_seconds", buckets=(1.0,)).observe(0.5)
        target = MetricsRegistry()
        target.histogram("repro_seconds", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bucket"):
            target.merge(source.snapshot())

    def test_snapshot_is_json_pure(self):
        import json

        registry = MetricsRegistry()
        registry.counter("repro_total", "", ("kind",)).inc(kind="a")
        registry.histogram("repro_seconds").observe(0.1)
        registry.gauge("repro_depth").set(1)
        round_tripped = json.loads(json.dumps(registry.snapshot()))
        target = MetricsRegistry()
        target.merge(round_tripped)
        assert target.counter("repro_total", "", ("kind",)).value(kind="a") == 1.0


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_total", "Things counted.", ("kind",)).inc(2, kind="a")
        registry.gauge("repro_depth", "Queue depth.").set(3)
        text = registry.render_prometheus()
        assert "# HELP repro_total Things counted." in text
        assert "# TYPE repro_total counter" in text
        assert 'repro_total{kind="a"} 2' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 3" in text

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_seconds", "Latency.",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = registry.render_prometheus()
        assert 'repro_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_seconds_bucket{le="1"} 2' in text
        assert 'repro_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_seconds_count 3" in text
        assert "repro_seconds_sum 5.55" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("repro_total", "", ("path",)).inc(path='a"b\\c')
        text = registry.render_prometheus()
        assert 'path="a\\"b\\\\c"' in text

    def test_extra_snapshots_fold_in(self):
        worker = MetricsRegistry()
        worker.counter("repro_total").inc(4)
        front = MetricsRegistry()
        front.counter("repro_total").inc(1)
        text = front.render_prometheus(extra_snapshots=(worker.snapshot(),))
        assert "repro_total 5" in text
        # The front end's own registry is untouched by the render merge.
        assert front.counter("repro_total").value() == 1.0


class TestDisabledRegistry:
    def test_mutators_are_noops(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("repro_total").inc(5)
        registry.gauge("repro_depth").set(5)
        registry.histogram("repro_seconds").observe(0.1)
        assert registry.counter("repro_total").value() == 0.0
        assert registry.histogram("repro_seconds").count() == 0

    def test_env_disables_global_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "off")
        previous = set_metrics(None)  # force a fresh lazy build
        try:
            registry = get_metrics()
            assert not registry.enabled
            registry.counter("repro_total").inc()
            assert registry.counter("repro_total").value() == 0.0
        finally:
            set_metrics(previous)
