"""Tests for repro.obs.metrics and the Prometheus/text exports."""

import math

import pytest

from repro.obs import NULL, Observability
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.export import render_metrics_table, render_prometheus


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x_total")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x_total").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("x")
        g.set(4.5)
        g.inc()
        g.dec(0.5)
        assert g.value == pytest.approx(5.0)


class TestHistogram:
    def test_rejects_empty_or_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_value_on_bound_counts_le(self):
        # Prometheus `le` semantics: a value equal to a bound lands in
        # that bound's bucket, deterministically.
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 0, 0]
        h.observe(2.0)
        assert h.bucket_counts == [1, 1, 0]

    def test_below_first_and_above_last(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(-100.0)      # below everything -> first bucket
        h.observe(2.0000001)   # above last finite bound -> +Inf bucket
        assert h.bucket_counts == [1, 0, 1]
        assert h.count == 2

    def test_sum_and_cumulative(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        assert h.sum == pytest.approx(5.0)
        cum = h.cumulative()
        assert cum == [(1.0, 1), (2.0, 2), (math.inf, 3)]

    def test_identical_observations_identical_buckets(self):
        a = Histogram("h", buckets=(1e-3, 1e-2, 1e-1))
        b = Histogram("h", buckets=(1e-3, 1e-2, 1e-1))
        for v in (5e-4, 1e-3, 5e-2, 0.2, 1e-2):
            a.observe(v)
            b.observe(v)
        assert a.bucket_counts == b.bucket_counts


class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", stage="demod")
        b = reg.counter("x_total", stage="demod")
        assert a is b
        a.inc(3)
        assert reg.value("x_total", stage="demod") == 3

    def test_distinct_labels_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("x_total", stage="a").inc()
        reg.counter("x_total", stage="b").inc(2)
        assert reg.value("x_total", stage="a") == 1
        assert reg.value("x_total", stage="b") == 2
        assert len(reg.series("x_total")) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", stage="a", proto="wifi")
        b = reg.counter("x_total", proto="wifi", stage="a")
        assert a is b

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x", other="labels")

    def test_missing_series_value_is_none(self):
        assert MetricsRegistry().value("absent") is None

    def test_collect_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.counter("a_total")
        reg.counter("a_total", z="2")
        names = [(m.name, m.labels) for m in reg.collect()]
        assert names == sorted(names)


class TestPrometheusRender:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("pkts_total", help="decoded packets", protocol="wifi").inc(7)
        reg.gauge("floor").set(1.5)
        page = render_prometheus(reg)
        assert "# TYPE pkts_total counter" in page
        assert "# HELP pkts_total decoded packets" in page
        assert 'pkts_total{protocol="wifi"} 7' in page
        assert "# TYPE floor gauge" in page
        assert "floor 1.5" in page

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0), stage="d")
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        page = render_prometheus(reg)
        assert 'lat_seconds_bucket{stage="d",le="0.1"} 1' in page
        assert 'lat_seconds_bucket{stage="d",le="1"} 2' in page
        assert 'lat_seconds_bucket{stage="d",le="+Inf"} 3' in page
        assert 'lat_seconds_count{stage="d"} 3' in page
        assert 'lat_seconds_sum{stage="d"}' in page

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", label='has "quotes"\\and\nnewline').inc()
        page = render_prometheus(reg)
        assert '\\"quotes\\"' in page
        assert "\\n" in page

    def test_help_escaping_round_trips(self):
        # regression: HELP text with a newline or backslash was emitted
        # raw, splitting the comment across lines and corrupting the page
        reg = MetricsRegistry()
        help_text = 'multi\nline help with \\ backslash and "quotes"'
        reg.counter("esc_total", help=help_text).inc()
        page = render_prometheus(reg)
        # the page stays line-parseable: every line is a comment or a
        # sample, and the HELP comment is a single line
        help_lines = [l for l in page.splitlines()
                      if l.startswith("# HELP esc_total ")]
        assert len(help_lines) == 1
        for line in page.splitlines():
            assert line.startswith("#") or line.split()[0] == "esc_total"
        # un-escaping per the text-format spec recovers the original
        # (quotes pass through unescaped in HELP, unlike label values)
        escaped = help_lines[0][len("# HELP esc_total "):]
        unescaped = escaped.replace("\\n", "\n").replace("\\\\", "\\")
        assert unescaped == help_text

    def test_deterministic_output(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b_total", p="2").inc(2)
            reg.counter("a_total").inc(1)
            reg.counter("b_total", p="1").inc(1)
            return render_prometheus(reg)

        assert build() == build()

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_human_table(self):
        reg = MetricsRegistry()
        reg.counter("x_total", stage="demod").inc(3)
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        table = render_metrics_table(reg)
        assert "x_total" in table
        assert "stage=demod" in table
        assert "n=1" in table


class TestObservabilityFacade:
    def test_shortcuts_share_registry(self):
        obs = Observability()
        obs.counter("x_total").inc()
        assert obs.registry.value("x_total") == 1

    def test_truthiness(self):
        assert Observability()
        assert not NULL

    def test_null_sink_accepts_everything(self):
        NULL.counter("x").inc(5)
        NULL.gauge("y").set(1)
        NULL.histogram("z").observe(2)
        with NULL.span("s", start_sample=0) as span:
            assert span is None


# -- Histogram.quantile ------------------------------------------------------

class TestHistogramQuantile:
    def _hist(self):
        return MetricsRegistry().histogram("h_seconds", buckets=(0.1, 1.0))

    def test_empty_histogram_reports_zero(self):
        assert self._hist().quantile(0.5) == 0.0

    def test_conservative_bucket_upper_bound(self):
        hist = self._hist()
        for _ in range(9):
            hist.observe(0.05)
        hist.observe(0.5)
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(0.99) == 1.0
        assert hist.quantile(0.0) == 0.1  # rank floors at 1

    def test_overflow_bucket_is_inf(self):
        hist = self._hist()
        hist.observe(5.0)
        assert hist.quantile(0.5) == float("inf")

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            self._hist().quantile(1.5)
