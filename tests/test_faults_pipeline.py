"""Detector crashes through the error-policy layer and circuit breaker,
and non-finite samples through the peak detector."""

import numpy as np
import pytest

from repro import RFDumpMonitor
from repro.analysis.decoders import WifiStreamDecoder
from repro.core.config import MonitorConfig
from repro.core.events import PacketEvent
from repro.core.monitor import make_monitor
from repro.core.pipeline import default_detectors
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer
from repro.errors import DetectorCrashError, RFDumpError, SampleIntegrityError
from repro.faults import CrashingDetector
from repro.obs import Observability


def _detectors(crasher):
    return default_detectors(("wifi",), ("timing", "phase")) + [crasher]


@pytest.fixture(scope="module")
def baseline(wifi_trace):
    return RFDumpMonitor(protocols=("wifi",)).process(wifi_trace.buffer)


def _classification_keys(report):
    return sorted((c.peak.start_sample, c.detector)
                  for c in report.classifications)


class TestDegrade:
    def test_healthy_detectors_unaffected(self, wifi_trace, baseline):
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="degrade"),
        )
        report = monitor.process(wifi_trace.buffer)
        assert crasher.crashes == 1
        assert _classification_keys(report) == _classification_keys(baseline)
        assert len(report.packets) == len(baseline.packets)

    def test_errors_and_counters_recorded(self, wifi_trace):
        obs = Observability()
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(
                protocols=("wifi",), on_error="degrade", obs=obs
            ),
        )
        report = monitor.process(wifi_trace.buffer)
        (record,) = [e for e in report.errors if e.stage == "detector"]
        assert record.component == crasher.name
        assert record.error == "InjectedFault"
        assert record.action == "quarantined"
        assert report.degraded
        assert obs.registry.value(
            "rfdump_detector_errors_total", detector=crasher.name
        ) == 1

    def test_circuit_breaker_trips_after_repeated_crashes(self, wifi_trace):
        obs = Observability()
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(
                protocols=("wifi",), on_error="degrade", obs=obs
            ),
        )
        for _ in range(4):
            report = monitor.process(wifi_trace.buffer)
        # the 4th window never reached the quarantined detector
        assert crasher.calls == 3
        assert monitor.quarantined_detectors == (crasher.name,)
        assert report.quarantined_detectors == (crasher.name,)
        reg = obs.registry
        assert reg.value("rfdump_detector_circuit_trips_total") == 1
        assert reg.value(
            "rfdump_detector_circuit_open", detector=crasher.name
        ) == 1

    def test_readmit_gives_detector_another_chance(self, wifi_trace):
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="degrade"),
        )
        for _ in range(3):
            monitor.process(wifi_trace.buffer)
        assert monitor.quarantined_detectors
        monitor.readmit_detectors()
        assert monitor.quarantined_detectors == ()
        monitor.process(wifi_trace.buffer)
        assert crasher.calls == 4

    def test_intermittent_crash_resets_breaker(self, wifi_trace):
        # two crashes, a healthy call, two more crashes: never 3 in a
        # row, so the breaker must not trip
        crasher = CrashingDetector(at=(0, 1, 3, 4))
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="degrade"),
        )
        for _ in range(5):
            monitor.process(wifi_trace.buffer)
        assert crasher.calls == 5
        assert monitor.quarantined_detectors == ()


class TestSkip:
    def test_skip_also_quarantines_per_window(self, wifi_trace, baseline):
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="skip"),
        )
        report = monitor.process(wifi_trace.buffer)
        assert _classification_keys(report) == _classification_keys(baseline)
        assert [e.action for e in report.errors] == ["quarantined"]


class TestRaise:
    def test_typed_error_names_the_detector(self, wifi_trace):
        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",), on_error="raise"),
        )
        with pytest.raises(DetectorCrashError) as excinfo:
            monitor.process(wifi_trace.buffer)
        assert isinstance(excinfo.value, RFDumpError)
        assert excinfo.value.detector == crasher.name


class TestLegacy:
    def test_default_mode_propagates_raw_exception(self, wifi_trace):
        from repro.faults import InjectedFault

        crasher = CrashingDetector(at=None)
        monitor = RFDumpMonitor(
            detectors=_detectors(crasher),
            config=MonitorConfig(protocols=("wifi",)),
        )
        with pytest.raises(InjectedFault):
            monitor.process(wifi_trace.buffer)


class TestWrappedDetector:
    def test_wrapped_detector_delegates_when_healthy(self, wifi_trace,
                                                     baseline):
        from repro.core.detectors import WifiSifsTimingDetector

        crasher = CrashingDetector(wrapped=WifiSifsTimingDetector(), at=())
        monitor = RFDumpMonitor(
            detectors=[crasher],
            config=MonitorConfig(protocols=("wifi",), on_error="degrade"),
        )
        report = monitor.process(wifi_trace.buffer)
        assert crasher.protocol == "wifi"
        assert report.errors == []
        wrapped_keys = {
            c.peak.start_sample for c in baseline.classifications
            if c.detector == WifiSifsTimingDetector().name
        }
        assert {c.peak.start_sample
                for c in report.classifications} == wrapped_keys


class TestNonFiniteSample:
    """One NaN/Inf sample costs that sample, never the rest of the
    window — and never silently (at the parent commit: 0 events, 0
    records under the default policy)."""

    BAD = 1000

    def _run(self, trace, baseline, value=None, at=BAD, kind="rfdump",
             carried=True, **config):
        samples = trace.buffer.samples.copy()
        if value is not None:
            samples[at] = value
        monitor = make_monitor(
            kind, MonitorConfig(protocols=("wifi",), **config))
        if carried:  # as streaming does after its first window
            monitor.noise_floor = baseline.noise_floor
        seen = []
        if kind in ("naive", "energy"):
            decoder = monitor._decoders["wifi"]
        else:
            decoder = monitor.decoders["wifi"]
        scan = decoder.scan
        decoder.scan = lambda sub, **kw: (
            seen.append(bool(np.isfinite(sub.samples).all()))
            or scan(sub, **kw))
        report = monitor.process(SampleBuffer(samples, trace.buffer.timebase))
        assert seen and all(seen)  # no demodulator is handed NaN/Inf
        return report

    @staticmethod
    def _lines(report, skip=None):
        return [PacketEvent.from_record(p, 8e6, seq=0).to_json()
                for p in report.packets if p is not skip]

    @staticmethod
    def _assert_one_record(report):
        (record,) = report.errors
        assert (record.stage, record.component, record.error, record.action) \
            == ("detector", "PeakDetector", "SampleIntegrityError", "sanitized")

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_sanitized_counted_and_reported_once(self, wifi_trace, baseline,
                                                 value):
        obs = Observability()
        report = self._run(wifi_trace, baseline, value, obs=obs)
        assert all(p.start_sample > self.BAD for p in baseline.packets)
        assert self._lines(report) == self._lines(baseline)
        self._assert_one_record(report)
        assert obs.registry.value("rfdump_peak_nonfinite_samples_total") == 1
        assert all(np.isfinite(p.mean_power) for p in report.peaks)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_bad_sample_inside_a_packet(self, wifi_trace, baseline, value):
        """A one-sample hole does not split a peak (``min_gap``), so the
        packet's range is analysed with the bad sample in it — as the
        zero the energy gate saw."""
        k = 1
        victim = baseline.packets[k]
        at = (victim.start_sample + victim.end_sample) // 2
        report = self._run(wifi_trace, baseline, value, at=at)
        assert any(p.start_sample < at < p.end_sample for p in report.peaks)
        assert self._lines(report, skip=report.packets[k]) \
            == self._lines(baseline, skip=victim)
        assert (report.packets[k].start_sample, report.packets[k].ok) \
            == (victim.start_sample, victim.ok)
        self._assert_one_record(report)

    @staticmethod
    def _spans(report, skip=None):
        # without the SNR column: the floor is estimated over one chunk less
        return [(p.protocol, p.start_sample, p.end_sample, p.ok)
                for p in report.packets if p is not skip]

    @pytest.mark.parametrize("on_error", [None, "degrade", "skip"])
    def test_estimated_floor_ignores_the_bad_chunk(self, wifi_trace, baseline,
                                                   on_error):
        """With no floor carried (every one-shot window, a stream's
        first) the percentile runs over the finite chunk powers (at the
        parent commit: a NaN floor, 0 packets, under every policy)."""
        report = self._run(wifi_trace, baseline, np.nan, carried=False,
                           on_error=on_error)
        assert np.isfinite(report.noise_floor)
        assert report.noise_floor == pytest.approx(baseline.noise_floor,
                                                   rel=0.01)
        assert self._spans(report) == self._spans(baseline)
        self._assert_one_record(report)

    def test_estimated_floor_with_the_bad_sample_in_a_packet(self, wifi_trace,
                                                             baseline):
        victim = baseline.packets[1]
        at = (victim.start_sample + victim.end_sample) // 2
        report = self._run(wifi_trace, baseline, np.nan, at=at, carried=False)
        # the packet under the bad sample may be lost, no other may
        kept = self._spans(baseline, skip=victim)
        assert [s for s in self._spans(report) if s in kept] == kept
        assert len(report.packets) <= len(baseline.packets)

    def test_streaming_first_window_survives_a_bad_sample(self, wifi_trace):
        """Under the default policy the first window estimates over its
        finite chunks and decodes; that estimate is not the one frozen
        for the stream — the next clean window's is, as before."""
        window, overlap = 160_000, 48_000
        samples = wifi_trace.buffer.samples.copy()

        def run(samples):
            obs = Observability()
            stream = StreamingMonitor(
                config=MonitorConfig(protocols=("wifi",), obs=obs),
                overlap=overlap)
            for a in range(0, len(samples), window):
                stream.process(SampleBuffer(samples[a:a + window],
                                            wifi_trace.buffer.timebase, a))
            stream.flush()
            return stream, obs

        clean, _ = run(samples)
        assert any(p.end_sample < window for p in clean.packets)
        samples[self.BAD] = np.nan
        faulted, obs = run(samples)
        assert [(p.start_sample, p.ok) for p in faulted.packets] \
            == [(p.start_sample, p.ok) for p in clean.packets]
        assert obs.registry.value(
            "rfdump_stream_nonfinite_noise_floor_total") == 1
        assert np.isfinite(faulted._noise_floor)

    def test_all_chunks_nonfinite_keeps_the_record(self, wifi_trace):
        """No finite chunk to estimate from: the floor stays non-finite,
        nothing is found, and the report says why."""
        samples = np.full(1000, np.nan, dtype=np.complex64)
        report = RFDumpMonitor(protocols=("wifi",)).process(
            SampleBuffer(samples, wifi_trace.buffer.timebase))
        assert not np.isfinite(report.noise_floor)
        assert len(report.peaks) == 0
        self._assert_one_record(report)

    def test_streaming_counts_a_carried_sample_once(self, wifi_trace):
        """The overlap tail is analysed again by the next window; a bad
        sample in it is counted and reported by the first only."""
        window, overlap = 160_000, 48_000
        samples = wifi_trace.buffer.samples.copy()
        samples[2 * window - 1000] = np.nan  # second window, inside its tail
        obs = Observability()
        stream = StreamingMonitor(
            config=MonitorConfig(protocols=("wifi",), obs=obs),
            overlap=overlap)
        reports = [
            stream.process(SampleBuffer(samples[a:a + window],
                                        wifi_trace.buffer.timebase, a))
            for a in range(0, len(samples), window)
        ]
        assert [len(r.errors) for r in reports] == [0, 1, 0, 0]
        assert obs.registry.value("rfdump_peak_nonfinite_samples_total") == 1

    def test_raise_mode_surfaces_integrity_error(self, wifi_trace, baseline):
        with pytest.raises(SampleIntegrityError) as excinfo:
            self._run(wifi_trace, baseline, np.nan, on_error="raise")
        assert excinfo.value.bad_samples == 1

    def test_finite_input_reports_nothing(self, wifi_trace, baseline):
        report = self._run(wifi_trace, baseline)
        assert report.errors == []
        assert self._lines(report) == self._lines(baseline)

    @pytest.mark.parametrize("kind", ["naive", "energy"])
    def test_baseline_monitors_apply_the_same_policy(self, wifi_trace,
                                                     baseline, kind):
        """No peak detector stands in front of these demodulators, so the
        monitor counts and zeroes (at the parent commit: ``TypeError``
        out of the Wi-Fi scan under naive, no packets under energy)."""
        clean = self._run(wifi_trace, baseline, kind=kind)
        assert len(clean.packets) == len(baseline.packets)
        assert clean.errors == []
        for value in (np.nan, complex(np.inf, 0.0)):
            report = self._run(wifi_trace, baseline, value, kind=kind)
            assert self._lines(report) == self._lines(clean)
            (record,) = report.errors
            assert (record.stage, record.error, record.action) \
                == ("stream", "SampleIntegrityError", "sanitized")
            assert record.component.endswith("NaiveMonitor")
        with pytest.raises(SampleIntegrityError) as excinfo:
            self._run(wifi_trace, baseline, np.nan, kind=kind,
                      on_error="raise")
        assert excinfo.value.bad_samples == 1

    def test_wifi_scan_survives_a_bad_sample(self, wifi_trace):
        """Every template's energy is NaN then; the scan still names one
        (at the parent commit: ``(-1, None)`` and a ``TypeError``)."""
        samples = wifi_trace.buffer.samples.copy()
        samples[self.BAD] = np.nan
        decoder = WifiStreamDecoder(wifi_trace.buffer.sample_rate)
        assert decoder.demodulator.strongest_template(samples) == 0
        records = decoder.scan(SampleBuffer(samples, wifi_trace.buffer.timebase))
        assert all(r.start_sample > self.BAD for r in records)
