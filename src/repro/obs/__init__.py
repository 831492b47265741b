"""Observability for the monitoring pipeline: metrics, traces, export.

One :class:`Observability` object bundles a :class:`MetricsRegistry`
and a :class:`Tracer` and is threaded through a monitor via
``MonitorConfig(obs=...)``.  Instrumented code holds either a real
instance or the shared :data:`NULL` object, whose metric and span
operations are no-ops — so hot paths stay branch-free::

    obs = config.obs or NULL
    obs.counter("rfdump_samples_total").inc(len(buffer))
    with obs.span("peak_detection", start_sample=buffer.start_sample):
        ...

Deterministic counters (samples touched, ranges dispatched, packets
decoded) are identical across runs of the same input; timing-valued
series (histograms, span durations) are not, by nature.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import Span, Tracer
from repro.obs.export import (
    render_metrics_table,
    render_prometheus,
    write_metrics,
    write_trace,
)


class Observability:
    """A metrics registry and a tracer for one monitoring run."""

    enabled = True

    def __init__(self, namespace: str = "rfdump", clock=None):
        self.registry = MetricsRegistry(namespace)
        self.tracer = Tracer() if clock is None else Tracer(clock)

    def __bool__(self) -> bool:
        return self.enabled

    # metric shortcuts
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self.registry.counter(name, help=help, **labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self.registry.gauge(name, help=help, **labels)

    def histogram(self, name: str, buckets=DEFAULT_SECONDS_BUCKETS,
                  help: str = "", **labels) -> Histogram:
        return self.registry.histogram(name, buckets=buckets, help=help, **labels)

    # tracing shortcuts
    def span(self, name: str, category: str = "stage", **kwargs):
        return self.tracer.span(name, category, **kwargs)


class _NullMetric:
    """Accepts every metric operation and records nothing."""

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


_NULL_METRIC = _NullMetric()


class _NullObservability(Observability):
    """The disabled observability; shared singleton, never records."""

    enabled = False

    def __init__(self):  # no registry/tracer allocation
        pass

    def counter(self, name, help="", **labels):
        return _NULL_METRIC

    def gauge(self, name, help="", **labels):
        return _NULL_METRIC

    def histogram(self, name, buckets=DEFAULT_SECONDS_BUCKETS, help="", **labels):
        return _NULL_METRIC

    @contextmanager
    def span(self, name, category="stage", **kwargs):
        yield None


#: shared no-op instance for un-instrumented runs
NULL = _NullObservability()

__all__ = [
    "Observability",
    "NULL",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_SECONDS_BUCKETS",
    "Tracer",
    "Span",
    "render_prometheus",
    "render_metrics_table",
    "write_metrics",
    "write_trace",
]
