"""Tests for the full RFDump pipeline (repro.core.pipeline)."""

import threading

import numpy as np
import pytest

from repro import RFDumpMonitor, packet_miss_rate
from repro.analysis.decoders import PacketRecord
from repro.core.config import MonitorConfig
from repro.core.detectors import (
    BluetoothTimingDetector,
    DbpskPhaseDetector,
    GfskPhaseDetector,
    WifiDifsTimingDetector,
    WifiSifsTimingDetector,
)
from repro.core.pipeline import default_detectors, packet_sort_key
from repro.emulator.presets import build_preset
from repro.errors import DecoderCrashError
from repro.faults import CrashingDecoder, InjectedFault


class TestDefaultDetectors:
    def test_timing_and_phase(self):
        dets = default_detectors(("wifi", "bluetooth"), ("timing", "phase"))
        kinds = {type(d) for d in dets}
        assert kinds == {
            WifiSifsTimingDetector, WifiDifsTimingDetector, DbpskPhaseDetector,
            BluetoothTimingDetector, GfskPhaseDetector,
        }

    def test_timing_only(self):
        dets = default_detectors(("wifi",), ("timing",))
        assert {type(d) for d in dets} == {
            WifiSifsTimingDetector, WifiDifsTimingDetector,
        }

    def test_all_protocols_have_defaults(self):
        dets = default_detectors(
            ("wifi", "bluetooth", "zigbee", "microwave"), ("timing", "phase")
        )
        assert len(dets) >= 6

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            default_detectors(("lorawan",), ("timing",))


class TestReport:
    def test_classifications_found(self, wifi_report, wifi_trace):
        truth = wifi_trace.ground_truth
        miss = packet_miss_rate(
            truth, wifi_report.classifications_for("wifi"), "wifi"
        )
        assert miss == 0.0

    def test_packets_decoded(self, wifi_report, wifi_trace):
        truth = wifi_trace.ground_truth.observable("wifi")
        assert len(wifi_report.packets_for("wifi")) == len(truth)

    def test_forwarded_less_than_total(self, wifi_report):
        forwarded = wifi_report.forwarded_samples("wifi")
        assert 0 < forwarded < wifi_report.total_samples

    def test_forwarding_bounded_by_chunk_granularity(self, wifi_report, wifi_trace):
        # forwarded samples should be within a few chunks per packet of the
        # true on-air time
        truth = wifi_trace.ground_truth.observable("wifi")
        on_air = sum(t.duration for t in truth) * 8e6
        slack = len(truth) * 3 * 200
        assert wifi_report.forwarded_samples("wifi") <= on_air + slack

    def test_stage_clock_populated(self, wifi_report):
        assert "peak_detection" in wifi_report.clock.seconds
        assert "demodulation" in wifi_report.clock.seconds
        assert wifi_report.cpu_over_realtime > 0

    def test_noise_floor_estimated(self, wifi_report):
        assert wifi_report.noise_floor == pytest.approx(1.0, rel=0.3)

    def test_peaks_cover_truth(self, wifi_report, wifi_trace):
        truth = wifi_trace.ground_truth.observable("wifi")
        assert len(wifi_report.peaks) >= len(truth)


class TestConfigurations:
    def test_no_demodulation_mode(self, wifi_trace):
        mon = RFDumpMonitor(kinds=("timing",), demodulate=False)
        report = mon.process(wifi_trace.buffer)
        assert report.packets == []
        assert "demodulation" not in report.clock.seconds
        assert report.classifications

    def test_timing_only_detects_unicast(self, wifi_trace):
        mon = RFDumpMonitor(kinds=("timing",), demodulate=False)
        report = mon.process(wifi_trace.buffer)
        miss = packet_miss_rate(
            wifi_trace.ground_truth, report.classifications_for("wifi"), "wifi"
        )
        assert miss < 0.05

    def test_phase_only_detects_unicast(self, wifi_trace):
        mon = RFDumpMonitor(kinds=("phase",), demodulate=False)
        report = mon.process(wifi_trace.buffer)
        miss = packet_miss_rate(
            wifi_trace.ground_truth, report.classifications_for("wifi"), "wifi"
        )
        assert miss < 0.05

    def test_custom_detectors(self, wifi_trace):
        mon = RFDumpMonitor(
            detectors=[WifiSifsTimingDetector()], demodulate=False
        )
        report = mon.process(wifi_trace.buffer)
        assert all(
            c.detector == "WifiSifsTimingDetector" for c in report.classifications
        )

    def test_fixed_noise_floor(self, wifi_trace):
        mon = RFDumpMonitor(demodulate=False, noise_floor=1.0)
        report = mon.process(wifi_trace.buffer)
        assert report.noise_floor == 1.0

    def test_headers_only_analyzer(self, wifi_trace):
        from repro.analysis.decoders import WifiStreamDecoder

        mon = RFDumpMonitor(protocols=("wifi",))
        mon.decoders["wifi"] = WifiStreamDecoder(wifi_trace.sample_rate,
                                                 decode_payload=False)
        report = mon.process(wifi_trace.buffer)
        assert report.packets
        assert all(p.decoded.header_only for p in report.packets)

    def test_detection_stage_reusable(self, wifi_trace):
        mon = RFDumpMonitor(demodulate=False)
        detection, classifications = mon.detect(wifi_trace.buffer)
        assert len(detection.history) > 0
        assert classifications


class _FakeDecoder:
    """One packet per scanned range; records what it was handed."""

    def __init__(self):
        self.seen = []

    def scan(self, buffer, channel_hint=None):
        self.seen.append((buffer.start_sample, buffer.end_sample,
                          channel_hint, threading.current_thread()))
        return [PacketRecord(protocol="wifi", start_sample=buffer.start_sample,
                             end_sample=buffer.end_sample, ok=True,
                             decoder="fake")]


class TestAnalysis:
    """The analysis stage: every dispatched range decoded inline."""

    def test_output_is_sorted(self, mixed_trace):
        report = RFDumpMonitor().process(mixed_trace.buffer)
        keys = [packet_sort_key(p) for p in report.packets]
        assert keys and keys == sorted(keys)

    def test_one_scan_per_dispatched_range(self, wifi_trace):
        monitor = RFDumpMonitor(protocols=("wifi",))
        spy = monitor.decoders["wifi"] = _FakeDecoder()
        report = monitor.process(wifi_trace.buffer)
        assert [(lo, hi, hint) for lo, hi, hint, _ in spy.seen] == [
            (r.start_sample, r.end_sample, r.channel)
            for r in report.ranges["wifi"]]
        assert [p.start_sample for p in report.packets] == [
            r.start_sample for r in report.ranges["wifi"]]

    def test_decodes_in_the_calling_thread_and_starts_none(self, wifi_trace):
        monitor = RFDumpMonitor(protocols=("wifi",))
        spy = monitor.decoders["wifi"] = _FakeDecoder()
        threads = threading.active_count()
        monitor.process(wifi_trace.buffer)
        assert spy.seen
        assert {t for *_, t in spy.seen} == {threading.current_thread()}
        assert threading.active_count() == threads

    def test_protocols_without_a_decoder_are_not_analysed(self):
        monitor = RFDumpMonitor(protocols=("wifi", "microwave"))
        assert set(monitor.decoders) == {"wifi"}
        assert RFDumpMonitor(demodulate=False).decoders == {}

    def test_samples_touched_match_forwarded(self, mixed_trace):
        report = RFDumpMonitor().process(mixed_trace.buffer)
        assert report.clock.samples_touched["demodulation"] == \
            report.forwarded_samples()

    def test_range_clocks_merge_into_report(self, mixed_trace):
        report = RFDumpMonitor().process(mixed_trace.buffer)
        assert set(report.demod_seconds_by_protocol) == {"wifi", "bluetooth"}
        assert sum(report.demod_seconds_by_protocol.values()) == \
            pytest.approx(report.clock.seconds["demodulation"])


@pytest.fixture(scope="module")
def mix_buffer():
    return build_preset("mix", 0.2, snr_db=20, seed=3).render().buffer


def _crashing_wifi(on_error):
    monitor = RFDumpMonitor(config=MonitorConfig(on_error=on_error))
    monitor.decoders["wifi"] = CrashingDecoder(
        wrapped=monitor.decoders["wifi"], at=[0])
    return monitor


class TestDecoderCrash:
    """A decoder that raises is handled like a detector that raises."""

    @pytest.mark.parametrize("on_error", ["skip", "degrade"])
    def test_skip_and_degrade_record_the_range_and_decode_the_rest(
            self, mix_buffer, on_error):
        clean = RFDumpMonitor().process(mix_buffer)
        report = _crashing_wifi(on_error).process(mix_buffer)
        first = report.ranges["wifi"][0]
        (record,) = report.errors
        assert (record.stage, record.component, record.error,
                record.action) == ("analysis", "wifi", "InjectedFault",
                                   "skipped")
        assert (record.start_sample, record.end_sample) == (
            first.start_sample, first.end_sample)
        lost = [p for p in clean.packets if p.protocol == "wifi"
                and first.start_sample <= p.start_sample < first.end_sample]
        assert lost
        assert [packet_sort_key(p) for p in report.packets] == [
            packet_sort_key(p) for p in clean.packets if p not in lost]

    def test_raise_policy_raises_one_typed_error(self, mix_buffer):
        with pytest.raises(DecoderCrashError) as info:
            _crashing_wifi("raise").process(mix_buffer)
        assert info.value.protocol == "wifi"
        assert isinstance(info.value.__cause__, InjectedFault)

    def test_no_policy_propagates_the_exception(self, mix_buffer):
        with pytest.raises(InjectedFault):
            _crashing_wifi(None).process(mix_buffer)
