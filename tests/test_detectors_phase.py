"""Tests for the phase detectors: DBPSK/Barker, GFSK, PSK constellation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detectors import (
    DbpskPhaseDetector,
    GfskPhaseDetector,
    PskConstellationDetector,
)
from repro.core.metadata import PeakHistory
from repro.core.peak_detector import PeakDetectionResult
from repro.dsp.samples import SampleBuffer
from repro.phy.bluetooth import BluetoothModulator, TYPE_DH1
from repro.phy.gfsk import GfskModem
from repro.phy.wifi import WifiModulator
from repro.phy.wifi_mac import build_data_frame
from repro.util.timebase import Timebase

FS = 8e6


def _buffer_with(wave, lead=400, tail=400, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    n = wave.size + lead + tail
    rx = noise * (rng.normal(size=n) + 1j * rng.normal(size=n))
    rx[lead : lead + wave.size] += wave
    buf = SampleBuffer(rx.astype(np.complex64), Timebase(FS))
    history = PeakHistory(FS)
    history.append(lead, lead + wave.size, 1.0, 1.0)
    detection = PeakDetectionResult(
        history=history, chunks=[], noise_floor=noise**2 * 2,
        threshold=noise**2 * 5, total_samples=n,
    )
    return buf, detection


@pytest.fixture(scope="module")
def wifi_wave():
    mpdu = build_data_frame(1, 2, b"p" * 60)
    return WifiModulator(FS).modulate(mpdu, 1.0)


@pytest.fixture(scope="module")
def bt_wave():
    return BluetoothModulator(FS).modulate(TYPE_DH1, b"q" * 20, clock=9)


class TestDbpskDetector:
    def test_classifies_wifi(self, wifi_wave):
        buf, det = _buffer_with(wifi_wave)
        out = DbpskPhaseDetector().classify(det, buf)
        assert len(out) == 1
        assert out[0].protocol == "wifi"
        assert out[0].info["barker_score"] > 0.62

    def test_rejects_gfsk(self, bt_wave):
        buf, det = _buffer_with(bt_wave)
        assert DbpskPhaseDetector().classify(det, buf) == []

    def test_rejects_noise_peak(self):
        rng = np.random.default_rng(1)
        wave = (rng.normal(size=4000) + 1j * rng.normal(size=4000)) * 0.5
        buf, det = _buffer_with(wave.astype(np.complex64))
        assert DbpskPhaseDetector().classify(det, buf) == []

    def test_rejects_cw_tone(self):
        wave = np.exp(2j * np.pi * 1e5 * np.arange(4000) / FS)
        buf, det = _buffer_with(wave.astype(np.complex64))
        assert DbpskPhaseDetector().classify(det, buf) == []

    def test_short_peak_skipped(self, wifi_wave):
        buf, det = _buffer_with(wifi_wave[:800])  # 100 us < min_duration
        assert DbpskPhaseDetector().classify(det, buf) == []

    def test_requires_buffer(self, wifi_wave):
        buf, det = _buffer_with(wifi_wave)
        with pytest.raises(ValueError):
            DbpskPhaseDetector().classify(det, None)

    def test_chip_phase_variants_detected(self):
        mpdu = build_data_frame(1, 2, b"v" * 40)
        for phase in (0.25, 0.75, 1.0):
            wave = WifiModulator(FS).modulate(mpdu, 1.0, chip_phase=phase)
            buf, det = _buffer_with(wave, seed=int(phase * 4))
            out = DbpskPhaseDetector().classify(det, buf)
            assert len(out) == 1, phase


class TestDbpskClosedForm:
    """The count-based sign-match returns the pair-by-pair walk's floats."""

    @staticmethod
    def _pair():
        pair = [DbpskPhaseDetector(impl=impl)
                for impl in ("vectorized", "reference")]
        for det in pair:
            det._prepare(FS)
        return pair

    @staticmethod
    def _segment(kind, n, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
        if kind == "zeros":      # exact zeros in Re(x[n] conj(x[n-1]))
            x[rng.random(n) < 0.3] = 0
        elif kind == "axes":     # more exact zeros: quarter-turn phase steps
            x = (1j ** rng.integers(0, 4, size=n)).astype(np.complex64)
        elif kind == "tone":     # constant phase step: one polarity only
            x = np.exp(2j * np.pi * 0.01 * seed * np.arange(n)).astype(np.complex64)
        elif kind == "nan" and n:
            x[rng.integers(0, n)] = np.nan
        return x

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["noise", "zeros", "axes", "tone", "nan"]),
           st.integers(0, 2000), st.integers(0, 2**16))
    def test_score_and_matched_symbols_equal_reference(self, kind, n, seed):
        fast, reference = self._pair()
        fast.threshold = reference.threshold = 0.3  # let noise reach the trim
        segment = self._segment(kind, n, seed)
        score = fast._score(segment)
        assert score == reference._score(segment)
        assert fast._matched_symbols(segment) \
            == reference._matched_symbols(segment)
        if n < 8 * 8 + 1:  # fewer than 8 whole symbols of transitions
            assert score == -1.0 and fast._matched_symbols(segment) == 0

    def test_first_best_pair_wins_ties(self, wifi_wave):
        # duplicate chip-phase templates tie exactly; both forms must
        # settle on the same (template, alignment) row
        fast, reference = self._pair()
        grid = fast._transitions(wifi_wave[:1025])
        assert fast._best_match(grid) == reference._best_match(grid)

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError):
            DbpskPhaseDetector(impl="fortran")


class TestGfskDetector:
    def test_classifies_bluetooth(self, bt_wave):
        buf, det = _buffer_with(bt_wave)
        out = GfskPhaseDetector().classify(det, buf)
        assert len(out) == 1
        assert out[0].protocol == "bluetooth"

    def test_channel_from_first_derivative(self, bt_wave):
        # the default center (2441.5 MHz) puts channel 41 (2443 MHz) at a
        # baseband offset of +1.5 MHz
        n = np.arange(bt_wave.size)
        shifted = (bt_wave * np.exp(2j * np.pi * 1.5e6 * n / FS)).astype(np.complex64)
        buf, det = _buffer_with(shifted)
        out = GfskPhaseDetector().classify(det, buf)
        assert out[0].channel == 41

    def test_rejects_dsss(self, wifi_wave):
        buf, det = _buffer_with(wifi_wave[: 2 * 2400])
        # give the peak a Bluetooth-plausible duration
        out = GfskPhaseDetector().classify(det, buf)
        assert out == []

    def test_rejects_noise(self):
        rng = np.random.default_rng(2)
        wave = (rng.normal(size=2400) + 1j * rng.normal(size=2400)) * 0.5
        buf, det = _buffer_with(wave.astype(np.complex64))
        assert GfskPhaseDetector().classify(det, buf) == []

    def test_long_peak_skipped(self):
        wave = GfskModem(FS).modulate(np.ones(4000, dtype=np.uint8))
        buf, det = _buffer_with(wave)  # 4 ms > 5 slots? no: 4ms > 3.125ms max
        assert GfskPhaseDetector().classify(det, buf) == []

    def test_cw_tone_is_continuous_phase(self):
        # a pure tone also has zero second derivative: the detector alone
        # cannot reject it (the microwave detector handles constant power);
        # document this as an accepted false positive
        wave = np.exp(2j * np.pi * 5e5 * np.arange(2400) / FS)
        buf, det = _buffer_with(wave.astype(np.complex64))
        out = GfskPhaseDetector().classify(det, buf)
        assert len(out) == 1  # tolerated false positive


class TestPskConstellation:
    def test_dbpsk_order_2(self, wifi_wave):
        buf, det = _buffer_with(wifi_wave)
        out = PskConstellationDetector().classify(det, buf)
        assert len(out) == 1
        assert out[0].info["constellation_order"] == 2
        assert out[0].info["modulation"] == "DBPSK"

    def test_gfsk_rejected(self, bt_wave):
        buf, det = _buffer_with(bt_wave)
        out = PskConstellationDetector().classify(det, buf)
        assert out == []

    def test_protocol_map_respected(self, wifi_wave):
        buf, det = _buffer_with(wifi_wave)
        out = PskConstellationDetector(
            protocol_for_order={4: "something"}
        ).classify(det, buf)
        assert out == []
