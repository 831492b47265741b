"""CPU-cost accounting per pipeline stage.

The paper's efficiency results (Table 1, Figure 9) are CPU-time /
real-time ratios.  :class:`StageClock` accumulates wall-clock time per
named stage; dividing by the trace's real-time duration gives the same
ratio for our stages.  A parallel *samples-touched* counter provides a
deterministic cost model the test suite can assert on without timing
flakiness.

With an :class:`~repro.obs.Observability` attached the clock doubles as
a thin adapter into the structured metrics layer: every stage timing
also lands in the ``rfdump_stage_seconds`` histogram and every touch in
the ``rfdump_stage_samples_total`` counter, while the plain dict API
stays exactly as it was.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class StageClock:
    """Accumulates per-stage costs for one monitoring run."""

    seconds: Dict[str, float] = field(default_factory=dict)
    samples_touched: Dict[str, int] = field(default_factory=dict)
    #: optional metrics/tracing sink (excluded from equality — two clocks
    #: that measured the same run are the same accounting)
    obs: Optional[object] = field(default=None, compare=False, repr=False)

    def _emit_seconds(self, name: str, elapsed: float) -> None:
        if self.obs:
            self.obs.histogram(
                "rfdump_stage_seconds",
                help="wall-clock seconds spent per pipeline stage invocation",
                stage=name,
            ).observe(elapsed)

    def _emit_touch(self, name: str, nsamples: int) -> None:
        if self.obs:
            self.obs.counter(
                "rfdump_stage_samples_total",
                help="samples read per pipeline stage (deterministic)",
                stage=name,
            ).inc(nsamples)

    @contextmanager
    def stage(self, name: str):
        """Time a stage; nestable across repeated invocations."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` a stage spent, measured by the caller (the
        analysis stage times each decode on the thread's CPU clock)."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self._emit_seconds(name, seconds)

    def touch(self, name: str, nsamples: int) -> None:
        """Record that a stage read ``nsamples`` samples."""
        self.samples_touched[name] = self.samples_touched.get(name, 0) + int(nsamples)
        self._emit_touch(name, int(nsamples))

    def total_seconds(self) -> float:
        """Stage seconds summed."""
        return sum(self.seconds.values())

    def cpu_over_realtime(self, trace_duration: float, stage: Optional[str] = None) -> float:
        """CPU time / real time, for one stage or the whole run."""
        if trace_duration <= 0:
            raise ValueError("trace_duration must be positive")
        spent = self.seconds.get(stage, 0.0) if stage else self.total_seconds()
        return spent / trace_duration

    def merged(self, other: "StageClock") -> "StageClock":
        """A new clock summing this one and ``other`` (dict-only: the
        result carries no metrics sink, so nothing is double-emitted)."""
        out = StageClock(dict(self.seconds), dict(self.samples_touched))
        for k, v in other.seconds.items():
            out.seconds[k] = out.seconds.get(k, 0.0) + v
        for k, v in other.samples_touched.items():
            out.samples_touched[k] = out.samples_touched.get(k, 0) + v
        return out
