"""Tests for the OFDM cyclic-prefix detector and its pipeline integration."""

import numpy as np
import pytest

from repro import RFDumpMonitor, Scenario, packet_miss_rate
from repro.core.detectors import OfdmCyclicPrefixDetector
from repro.core.metadata import PeakHistory
from repro.core.peak_detector import PeakDetectionResult
from repro.dsp.samples import SampleBuffer
from repro.emulator.traffic import OfdmBurstSource
from repro.phy.ofdm import OfdmModem
from repro.phy.wifi import WifiModulator
from repro.phy.wifi_mac import build_data_frame
from repro.util.timebase import Timebase

FS = 8e6


def _buffer_with(wave, lead=400, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    n = wave.size + lead + 400
    rx = noise * (rng.normal(size=n) + 1j * rng.normal(size=n))
    rx[lead : lead + wave.size] += wave
    buf = SampleBuffer(rx.astype(np.complex64), Timebase(FS))
    history = PeakHistory(FS)
    history.append(lead, lead + wave.size, 1.0, 1.0)
    detection = PeakDetectionResult(
        history=history, noise_floor=noise**2 * 2,
        threshold=noise**2 * 5, total_samples=n,
    )
    return buf, detection


class TestCpDetector:
    def test_classifies_ofdm(self):
        wave = OfdmModem(FS).modulate(bytes(200))
        buf, det = _buffer_with(wave)
        out = OfdmCyclicPrefixDetector().classify(det, buf)
        assert len(out) == 1
        assert out[0].protocol == "ofdm"
        assert out[0].info["cp_metric"] > 0.45

    def test_rejects_dsss(self):
        wave = WifiModulator(FS).modulate(build_data_frame(1, 2, b"d" * 60), 1.0)
        buf, det = _buffer_with(wave)
        assert OfdmCyclicPrefixDetector().classify(det, buf) == []

    def test_rejects_noise_peak(self, rng):
        wave = 0.5 * (rng.normal(size=4000) + 1j * rng.normal(size=4000))
        buf, det = _buffer_with(wave.astype(np.complex64))
        assert OfdmCyclicPrefixDetector().classify(det, buf) == []

    def test_requires_buffer(self):
        wave = OfdmModem(FS).modulate(bytes(50))
        _, det = _buffer_with(wave)
        with pytest.raises(ValueError):
            OfdmCyclicPrefixDetector().classify(det, None)

    def test_short_peak_skipped(self):
        wave = OfdmModem(FS).modulate(b"")[:600]  # 75 us < min_duration
        buf, det = _buffer_with(wave)
        assert OfdmCyclicPrefixDetector().classify(det, buf) == []


class TestPipeline:
    @pytest.fixture(scope="class")
    def ofdm_trace(self):
        scenario = Scenario(duration=0.08, seed=56)
        scenario.add(OfdmBurstSource(n_packets=6, snr_db=20.0, interval=11e-3))
        return scenario.render()

    def test_end_to_end(self, ofdm_trace):
        monitor = RFDumpMonitor(protocols=("ofdm",), kinds=("phase",))
        report = monitor.process(ofdm_trace.buffer)
        truth = ofdm_trace.ground_truth
        assert packet_miss_rate(
            truth, report.classifications_for("ofdm"), "ofdm"
        ) == 0.0
        assert len(report.packets_for("ofdm")) == len(truth.observable("ofdm"))
        for packet in report.packets_for("ofdm"):
            assert packet.decoded.crc_ok

    def test_coexists_with_dsss(self, ofdm_trace):
        from repro import WifiPingSession

        scenario = Scenario(duration=0.1, seed=57)
        scenario.add(OfdmBurstSource(n_packets=4, snr_db=20.0, interval=23e-3))
        scenario.add(WifiPingSession(n_pings=3, snr_db=20.0, interval=30e-3,
                                     start=6e-3, payload_size=200))
        trace = scenario.render()
        monitor = RFDumpMonitor(protocols=("wifi", "ofdm"), kinds=("phase",),
                                demodulate=False)
        report = monitor.process(trace.buffer)
        truth = trace.ground_truth
        assert packet_miss_rate(
            truth, report.classifications_for("ofdm"), "ofdm"
        ) <= 0.25
        assert packet_miss_rate(
            truth, report.classifications_for("wifi"), "wifi"
        ) <= 0.25
        # no cross-classification: OFDM peaks are not tagged DSSS or v.v.
        ofdm_peaks = {c.peak.index for c in report.classifications_for("ofdm")}
        wifi_peaks = {c.peak.index for c in report.classifications_for("wifi")}
        assert not (ofdm_peaks & wifi_peaks)
