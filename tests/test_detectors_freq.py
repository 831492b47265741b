"""Tests for the Bluetooth frequency detector (Section 4.6)."""

import numpy as np
import pytest

from repro.core.detectors import BluetoothFrequencyDetector
from repro.core.metadata import PeakHistory
from repro.core.peak_detector import PeakDetectionResult
from repro.dsp.samples import SampleBuffer
from repro.emulator.channel import apply_freq_offset
from repro.phy.bluetooth import BluetoothModulator, TYPE_DH1
from repro.phy.bluetooth_fh import channel_freq
from repro.phy.wifi import WifiModulator
from repro.phy.wifi_mac import build_data_frame
from repro.util.timebase import Timebase

FS = 8e6
CENTER = 2.4415e9


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


def _bt_on_channel(channel):
    wave = BluetoothModulator(FS).modulate(TYPE_DH1, b"freq" * 5, clock=3)
    offset = channel_freq(channel) - CENTER
    return apply_freq_offset(wave, offset, FS)


class TestBluetoothFreq:
    @pytest.mark.parametrize("channel", [36, 39, 43])
    def test_detects_channel(self, channel):
        buf, det = _buffer_with(_bt_on_channel(channel))
        out = BluetoothFrequencyDetector(center_freq=CENTER).classify(det, buf)
        assert len(out) == 1
        assert out[0].protocol == "bluetooth"
        assert out[0].channel == channel

    def test_edge_smeared_burst_still_single_channel(self):
        # leading/trailing noise-only frames inside the peak bounds must
        # not dilute the single-channel fraction (regression: the
        # fraction was normalized by the total frame count, so a burst
        # whose peak included smeared edges fell below the threshold)
        wave = _bt_on_channel(39)
        pad = 6 * 256  # six channelizer frames of noise on each side
        lead = 400
        rng = np.random.default_rng(1)
        n = wave.size + 2 * pad + 2 * lead
        rx = 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        rx[lead + pad : lead + pad + wave.size] += wave
        buf = SampleBuffer(rx.astype(np.complex64), Timebase(FS))
        history = PeakHistory(FS)
        history.append(lead, lead + 2 * pad + wave.size, 1.0, 1.0)
        det = PeakDetectionResult(
            history=history, noise_floor=0.005,
            threshold=0.0125, total_samples=n,
        )
        out = BluetoothFrequencyDetector(center_freq=CENTER).classify(det, buf)
        assert len(out) == 1
        assert out[0].channel == 39
        assert out[0].info["single_fraction"] >= 0.7

    def test_rejects_wideband_wifi(self):
        wave = WifiModulator(FS).modulate(build_data_frame(1, 2, b"w" * 60), 1.0)
        buf, det = _buffer_with(wave)
        out = BluetoothFrequencyDetector(center_freq=CENTER).classify(det, buf)
        assert out == []

    def test_rejects_noise(self):
        rng = np.random.default_rng(3)
        wave = 0.5 * (rng.normal(size=4000) + 1j * rng.normal(size=4000))
        buf, det = _buffer_with(wave.astype(np.complex64))
        out = BluetoothFrequencyDetector(center_freq=CENTER).classify(det, buf)
        assert out == []

    def test_requires_buffer(self):
        buf, det = _buffer_with(_bt_on_channel(39))
        with pytest.raises(ValueError):
            BluetoothFrequencyDetector().classify(det, None)

    def test_rejects_mismatched_fft(self):
        with pytest.raises(ValueError):
            BluetoothFrequencyDetector(nchannels=7, fft_size=256)

    def test_bin_count_knob(self):
        # coarser bins (4 x 2 MHz) still single-bin for Bluetooth
        buf, det = _buffer_with(_bt_on_channel(37))
        out = BluetoothFrequencyDetector(
            nchannels=4, fft_size=256, center_freq=CENTER
        ).classify(det, buf)
        assert len(out) == 1
