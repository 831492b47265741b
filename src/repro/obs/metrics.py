"""Structured metrics: counters, gauges and fixed-bucket histograms.

The paper's headline numbers are cost-accounting ratios (Table 1,
Figure 9); this module gives the pipeline a first-class place to put
them.  Metrics live in a named :class:`MetricsRegistry` and are
identified by a metric name plus a sorted label set, Prometheus-style.
Counters and gauges over deterministic quantities (samples touched,
ranges dispatched, packets decoded) are exactly reproducible across
runs; histograms use *fixed*
bucket bounds so that two runs observing the same values always produce
the same bucket counts.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

LabelSet = Tuple[Tuple[str, str], ...]

#: default histogram bounds for per-stage seconds — log-spaced from well
#: under one window's work to well over real time (upper bound +Inf is
#: implicit)
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)


def _label_set(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Common identity for one labelled time series."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelSet = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def key(self) -> Tuple[str, LabelSet]:
        return (self.name, self.labels)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in self.labels)
        return f"<{type(self).__name__} {self.name}{{{pairs}}}>"


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = (), help: str = ""):
        super().__init__(name, labels, help)
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge(Metric):
    """A value that can go up and down (noise floor, frontier lag)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = (), help: str = ""):
        super().__init__(name, labels, help)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram(Metric):
    """Fixed-bucket histogram with Prometheus ``le`` (<=) semantics.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit +Inf bucket catches the tail.  Bucket assignment is a
    deterministic :func:`bisect.bisect_left`, so a value landing exactly
    on a bound counts toward that bound's bucket.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
                 labels: LabelSet = (), help: str = ""):
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)  # + Inf
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip((*self.bounds, float("inf")), self.bucket_counts):
            running += n
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation.

        Conservative in the Prometheus sense: the true quantile is <=
        the returned bound.  Returns 0.0 when nothing was observed and
        +Inf when the quantile falls in the implicit overflow bucket
        (the histogram cannot resolve it — widen the bounds).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        # rank of the target observation, 1-based; ceil so q just above a
        # bucket boundary moves to the next observation (conservative)
        exact = q * self.count
        rank = int(exact) + 1 if exact > int(exact) else max(1, int(exact))
        for bound, running in self.cumulative():
            if running >= rank:
                return bound
        return float("inf")


class MetricsRegistry:
    """A named collection of metrics, the unit of export.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers the series, later calls with the same name and labels
    return the same object.  Re-registering a name as a different metric
    kind is an error — one name, one type, as in Prometheus.

    Registration is thread-safe: the daemon's accept and
    connection threads all get-or-create series concurrently, and a
    check-then-act race here would hand two threads distinct ``Counter``
    objects for the same key (one of which silently loses every
    increment).  The registry lock is a leaf domain — held only around
    the dict lookup/insert, never while calling out.
    """

    def __init__(self, namespace: str = "rfdump"):
        self.namespace = namespace
        self._metrics: Dict[Tuple[str, LabelSet], Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, labels: Dict[str, object],
                       **kwargs) -> Metric:
        key = (name, _label_set(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                known = self._kinds.get(name)
                if known is not None and known != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as a {known}"
                    )
                metric = cls(name, labels=key[1], help=help, **kwargs)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as a {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
                  help: str = "", **labels) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- introspection --------------------------------------------------------

    def collect(self) -> Iterator[Metric]:
        """Every registered metric, sorted by (name, labels) for
        deterministic export.  Snapshots the key set under the lock and
        yields outside it, so an exporter iterating while the daemon
        registers new series never sees a dict-changed-size error."""
        with self._lock:
            snapshot = [self._metrics[key] for key in sorted(self._metrics)]
        for metric in snapshot:
            yield metric

    def value(self, name: str, **labels) -> Optional[Union[int, float]]:
        """The current value of a counter/gauge, or a histogram's count;
        None when the series does not exist (nothing was ever recorded)."""
        with self._lock:
            metric = self._metrics.get((name, _label_set(labels)))
        if metric is None:
            return None
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def series(self, name: str) -> List[Metric]:
        """All label sets registered under one metric name."""
        return [m for m in self.collect() if m.name == name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
