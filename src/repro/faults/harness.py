"""The fault-injection harness: preset scenarios, windowed, under faults.

Glue that lets one test (or one REPL line) run the full streaming
pipeline over an emulated workload with faults injected, and compare it
against the fault-free run of the *same* windows:

>>> from repro.faults import FaultPlan, StreamGapInjector, run_faulted
>>> windows = preset_windows("wifi", duration=0.06, seed=3)
>>> plan = FaultPlan(StreamGapInjector(gap_samples=5_000, at=(1,)))
>>> clean = run_faulted(windows, FaultPlan(), protocols=("wifi",))
>>> faulty = run_faulted(windows, plan, protocols=("wifi",),
...                      on_error="degrade")
>>> faulty.monitor.gaps
1

Everything is deterministic for fixed seeds, so the harness can assert
byte-identical output on unaffected windows — the acceptance bar for
graceful degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.config import MonitorConfig
from repro.core.pipeline import MonitorReport, RFDumpMonitor
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer
from repro.emulator.presets import build_preset
from repro.faults.injectors import FaultEvent, FaultPlan


def split_windows(buffer: SampleBuffer, window_samples: int
                  ) -> List[SampleBuffer]:
    """Cut a rendered buffer into contiguous stream windows."""
    if window_samples <= 0:
        raise ValueError("window_samples must be positive")
    return [
        buffer.slice(buffer.start_sample + lo,
                     min(buffer.start_sample + lo + window_samples,
                         buffer.end_sample))
        for lo in range(0, len(buffer), window_samples)
    ]


def preset_windows(preset: str, duration: float = 0.08,
                   window_samples: int = 160_000, snr_db: float = 20.0,
                   seed: int = 0) -> List[SampleBuffer]:
    """Render a :mod:`repro.emulator.presets` scenario as stream windows."""
    rendered = build_preset(preset, duration, snr_db=snr_db, seed=seed).render()
    return split_windows(rendered.buffer, window_samples)


@dataclass
class FaultRun:
    """What one harness run produced, with the fault log that shaped it."""

    monitor: StreamingMonitor
    reports: List[MonitorReport]
    events: List[FaultEvent] = field(default_factory=list)

    @property
    def packets(self):
        return self.monitor.packets

    @property
    def classifications(self):
        return self.monitor.classifications

    @property
    def errors(self):
        """Every handled fault across the run (stream + per-window)."""
        out = list(self.monitor.errors)
        seen = {id(r) for r in out}
        for report in self.reports:
            out.extend(r for r in report.errors if id(r) not in seen)
        return out


def run_faulted(windows: Sequence[SampleBuffer],
                plan: Optional[FaultPlan] = None,
                monitor: Optional[StreamingMonitor] = None,
                on_error: Optional[str] = None,
                overlap: int = 48_000,
                config: Optional[MonitorConfig] = None,
                **monitor_kwargs) -> FaultRun:
    """Stream ``windows`` through a monitor with ``plan``'s faults applied.

    Builds a :class:`StreamingMonitor` over an :class:`RFDumpMonitor`
    unless one is passed in; ``monitor_kwargs`` (``protocols=``,
    ``demodulate=`` …) go to the inner monitor.  The monitor is flushed and
    closed before returning.
    """
    plan = plan if plan is not None else FaultPlan()
    if monitor is None:
        if config is None:
            config = MonitorConfig(on_error=on_error, **monitor_kwargs)
        inner = RFDumpMonitor(config=config)
        monitor = StreamingMonitor(inner, overlap=overlap)
    reports = []
    with monitor:
        for window in plan.apply(windows):
            reports.append(monitor.process(window))
        monitor.flush()
    return FaultRun(monitor=monitor, reports=reports, events=plan.events)
