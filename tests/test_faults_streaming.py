"""Stream-level faults through the streaming monitor, per error policy.

The acceptance bar: under each fault class the monitor completes in
degrade mode with nonzero degradation counters and produces identical
packets on the unaffected windows, while raise mode surfaces the fault
as its typed :class:`~repro.errors.RFDumpError` subclass.
"""

import numpy as np
import pytest

from repro.errors import RFDumpError, SampleIntegrityError, StreamGapError
from repro.faults import (
    FaultPlan,
    NaNBurstInjector,
    StreamGapInjector,
    TruncateWindowInjector,
    preset_windows,
    run_faulted,
)
from repro.obs import Observability

WINDOW = 160_000
OVERLAP = 48_000


@pytest.fixture(scope="module")
def windows():
    return preset_windows(
        "wifi", duration=0.08, window_samples=WINDOW, seed=3
    )


@pytest.fixture(scope="module")
def clean(windows):
    return run_faulted(windows, protocols=("wifi",), overlap=OVERLAP)


def _key(p):
    return (p.protocol, p.start_sample, p.end_sample, p.ok, p.decoder,
            p.payload_size, p.rate_mbps, p.channel)


def _outside(packets, spans):
    def affected(p):
        return any(p.start_sample < hi and p.end_sample > lo
                   for lo, hi in spans)

    return sorted(_key(p) for p in packets if not affected(p))


class TestStreamGap:
    def _plan(self):
        return FaultPlan(StreamGapInjector(gap_samples=5_000, at=(2,)))

    def test_degrade_completes_and_counts(self, windows, clean):
        obs = Observability()
        plan = self._plan()
        run = run_faulted(windows, plan, on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        monitor = run.monitor
        assert monitor.gaps == 1
        assert monitor.lost_samples == 5_000
        (record,) = [e for e in monitor.errors
                     if e.error == "StreamGapError"]
        assert record.action == "resync"
        assert record.stage == "stream"
        reg = obs.registry
        assert reg.value("rfdump_stream_gaps_total") == 1
        assert reg.value("rfdump_stream_gap_lost_samples_total") == 5_000
        # unaffected windows are packet-identical to the fault-free run
        spans = plan.affected_spans(margin=OVERLAP)
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)
        assert _outside(clean.packets, spans)  # comparison is not vacuous

    def test_gap_errors_ride_on_window_report(self, windows):
        run = run_faulted(windows, self._plan(), on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",))
        faulted_report = run.reports[2]
        assert faulted_report.degraded
        assert faulted_report.last_error.error == "StreamGapError"

    def test_raise_mode_surfaces_typed_error(self, windows):
        with pytest.raises(StreamGapError) as excinfo:
            run_faulted(windows, self._plan(), on_error="raise",
                        overlap=OVERLAP, protocols=("wifi",))
        exc = excinfo.value
        assert isinstance(exc, RFDumpError)
        assert isinstance(exc, ValueError)  # legacy contract preserved
        assert exc.gap_samples == 5_000

    def test_legacy_default_still_raises(self, windows):
        with pytest.raises(ValueError):
            run_faulted(windows, self._plan(),
                        overlap=OVERLAP, protocols=("wifi",))


class TestNaNBurst:
    def _plan(self, burst=512):
        return FaultPlan(
            NaNBurstInjector(burst_samples=burst, offset=10_000, at=(1,))
        )

    def test_degrade_sanitizes_and_counts(self, windows, clean):
        obs = Observability()
        plan = self._plan()
        run = run_faulted(windows, plan, on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        # the peak detector's one rule, recorded on the window's report
        (record,) = [e for r in run.reports for e in r.errors]
        assert (record.component, record.action) == (
            "PeakDetector", "sanitized")
        assert obs.registry.value(
            "rfdump_peak_nonfinite_samples_total"
        ) == 512
        assert run.monitor.errors == []  # no stream-level fault
        assert run.monitor.lost_samples == 0  # sanitized, not dropped
        spans = plan.affected_spans(margin=OVERLAP)
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)

    def test_raise_mode_surfaces_integrity_error(self, windows):
        with pytest.raises(SampleIntegrityError) as excinfo:
            run_faulted(windows, self._plan(), on_error="raise",
                        overlap=OVERLAP, protocols=("wifi",))
        assert isinstance(excinfo.value, RFDumpError)
        assert excinfo.value.bad_samples == 512

    def test_skip_mode_drops_window_without_gap(self, windows, clean):
        obs = Observability()
        plan = self._plan()
        run = run_faulted(windows, plan, on_error="skip",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        monitor = run.monitor
        assert monitor.gaps == 0  # the dropped window leaves no gap behind
        assert monitor.lost_samples == WINDOW
        (record,) = monitor.errors
        assert record.action == "skipped"
        assert obs.registry.value(
            "rfdump_stream_windows_skipped_total"
        ) == 1
        # the whole skipped window is affected; the rest must match
        spans = [(windows[1].start_sample - OVERLAP,
                  windows[1].end_sample + OVERLAP)]
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_noise_floor_survives_nan_in_first_window_by_default(
        self, windows, clean
    ):
        # satellite: a NaN burst in the very first window poisons the
        # noise-floor estimate (percentile over NaN), and the carried
        # value would disable peak detection for the rest of the stream.
        # Even in legacy mode the non-finite estimate must be discarded
        # so the next window re-estimates.
        obs = Observability()
        plan = FaultPlan(
            NaNBurstInjector(burst_samples=5_000, offset=10_000, at=(0,))
        )
        run = run_faulted(windows, plan, overlap=OVERLAP,
                          protocols=("wifi",), obs=obs)
        assert obs.registry.value(
            "rfdump_stream_nonfinite_noise_floor_total"
        ) == 1
        floor = run.monitor._noise_floor
        assert floor is not None and np.isfinite(floor)
        # detection recovered: later windows still decode their packets
        spans = plan.affected_spans(margin=OVERLAP)
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degrade_keeps_detecting_after_nan_in_first_window(
        self, windows, clean
    ):
        # regression: the stream used to zero the burst itself, so the
        # peak detector never recorded it and the first window's floor
        # was frozen at 0.0 -- every later window gated deaf
        obs = Observability()
        plan = FaultPlan(
            NaNBurstInjector(burst_samples=20_000, offset=10_000, at=(0,))
        )
        run = run_faulted(windows, plan, on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        spans = plan.affected_spans(margin=OVERLAP)
        assert _outside(clean.packets, spans)  # comparison is not vacuous
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)
        assert run.monitor._noise_floor > 0
        assert obs.registry.value(
            "rfdump_stream_nonfinite_noise_floor_total"
        ) == 1


class TestEmptyDiscontiguousWindow:
    def test_degrade_absorbs_emptied_window(self, windows, clean):
        # keep=0/shift makes window 1 empty *and* discontiguous; the gap
        # then surfaces at window 2 and degrade mode resyncs across it
        obs = Observability()
        plan = FaultPlan(TruncateWindowInjector(keep=0, shift=17, at=(1,)))
        run = run_faulted(windows, plan, on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        monitor = run.monitor
        assert monitor.gaps == 1
        assert monitor.lost_samples == WINDOW
        assert run.reports[1].total_samples == 0
        assert obs.registry.value("rfdump_stream_gaps_total") == 1
        spans = [(windows[1].start_sample - OVERLAP,
                  windows[1].end_sample + OVERLAP)]
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)

    def test_empty_window_itself_never_raises(self, windows):
        # satellite regression: the empty window early-returns before the
        # continuity check in every mode, including raise
        plan = FaultPlan(TruncateWindowInjector(keep=0, shift=17, at=(3,)))
        run = run_faulted(windows[:4], plan, on_error="raise",
                          overlap=OVERLAP, protocols=("wifi",))
        assert run.reports[3].total_samples == 0


class TestComposedFaults:
    def test_gap_and_nan_burst_together(self, windows, clean):
        obs = Observability()
        plan = FaultPlan(
            StreamGapInjector(gap_samples=2_000, at=(1,)),
            NaNBurstInjector(burst_samples=256, offset=40_000, at=(2,)),
        )
        run = run_faulted(windows, plan, on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",), obs=obs)
        monitor = run.monitor
        assert monitor.gaps == 1
        assert monitor.lost_samples == 2_000
        assert {(e.error, e.action) for r in run.reports
                for e in r.errors} == {
            ("StreamGapError", "resync"), ("SampleIntegrityError", "sanitized")
        }
        assert obs.registry.value(
            "rfdump_peak_nonfinite_samples_total"
        ) == 256
        spans = plan.affected_spans(margin=OVERLAP)
        assert _outside(run.packets, spans) == _outside(clean.packets, spans)


def crash_after(monkeypatch, calls):
    """Make the Wi-Fi DIFS timing detector raise on every pass after its
    first ``calls``: with ``calls`` windows, only in the flush pass."""
    from repro.core.detectors import WifiDifsTimingDetector

    original = WifiDifsTimingDetector.classify
    seen = []

    def classify(self, detection, buffer):
        seen.append(buffer.start_sample)
        if len(seen) > calls:
            raise RuntimeError("detector fault in the flush pass")
        return original(self, detection, buffer)

    monkeypatch.setattr(WifiDifsTimingDetector, "classify", classify)


def open_ended(windows):
    """Three windows whose last ends inside the data frame at 328 000,
    so the flush pass has a range to close."""
    return [windows[0], windows[1], windows[2].slice(320_000, 340_000)]


class TestFlushPassFault:
    """A fault record made in the flush pass reaches the caller (it
    reached no consumer when only window reports were read)."""

    def test_reaches_the_last_window_events_report(self, windows,
                                                   monkeypatch):
        from repro.core.config import MonitorConfig
        from repro.core.streaming import StreamingMonitor

        crash_after(monkeypatch, 3)
        monitor = StreamingMonitor(config=MonitorConfig(
            protocols=("wifi",), on_error="degrade"), overlap=OVERLAP)
        passes = list(monitor.window_events(open_ended(windows)))
        assert len(passes) == 4
        assert all(not report.errors for report, _ in passes[:3])
        last, events = passes[-1]
        assert last is not None and last.total_samples > 0
        assert [(e.stage, e.error, e.action) for e in last.errors] == [
            ("detector", "RuntimeError", "quarantined")]
        assert monitor.errors == []  # stream-level faults only

    def test_reaches_fault_run_errors(self, windows, monkeypatch):
        crash_after(monkeypatch, 3)
        run = run_faulted(open_ended(windows), on_error="degrade",
                          overlap=OVERLAP, protocols=("wifi",))
        assert [(e.stage, e.action) for e in run.errors] == [
            ("detector", "quarantined")]
        assert run.flushed.errors == run.errors
