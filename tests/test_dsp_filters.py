"""Tests for repro.dsp.filters (cross-validated against scipy)."""

import numpy as np
import pytest

from repro.dsp.filters import (
    filter_signal,
    fir_lowpass,
    gaussian_pulse,
)


class TestFirLowpass:
    def test_unit_dc_gain(self):
        taps = fir_lowpass(1e6, 8e6, 64)
        assert taps.sum() == pytest.approx(1.0)

    def test_passband_and_stopband(self):
        taps = fir_lowpass(1e6, 8e6, 129)
        freqs = np.fft.rfftfreq(4096, d=1 / 8e6)
        response = np.abs(np.fft.rfft(taps, 4096))
        passband = response[freqs < 0.5e6]
        stopband = response[freqs > 2.5e6]
        assert passband.min() > 0.9
        assert stopband.max() < 0.05

    def test_matches_scipy_firwin_shape(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        ours = fir_lowpass(1e6, 8e6, 65)
        theirs = scipy_signal.firwin(65, 1e6, fs=8e6, window="hamming")
        theirs /= theirs.sum()
        assert np.allclose(ours, theirs, atol=1e-6)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            fir_lowpass(5e6, 8e6)
        with pytest.raises(ValueError):
            fir_lowpass(0.0, 8e6)

    def test_rejects_tiny_ntaps(self):
        with pytest.raises(ValueError):
            fir_lowpass(1e6, 8e6, ntaps=1)


class TestGaussianPulse:
    def test_unit_area(self):
        taps = gaussian_pulse(0.5, 8)
        assert taps.sum() == pytest.approx(1.0)

    def test_symmetric(self):
        taps = gaussian_pulse(0.5, 8)
        assert np.allclose(taps, taps[::-1])

    def test_narrower_for_higher_bt(self):
        wide = gaussian_pulse(0.3, 8)
        narrow = gaussian_pulse(1.0, 8)
        assert narrow.max() > wide.max()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gaussian_pulse(0.0, 8)
        with pytest.raises(ValueError):
            gaussian_pulse(0.5, 0)


class TestFilterSignal:
    def test_length_preserved(self):
        x = np.ones(100, dtype=np.complex64)
        taps = fir_lowpass(1e6, 8e6, 33)
        assert filter_signal(x, taps).size == 100

    def test_empty(self):
        assert filter_signal(np.zeros(0), np.ones(3)).size == 0

    def test_dc_passes(self):
        x = np.ones(200)
        taps = fir_lowpass(1e6, 8e6, 33)
        assert np.allclose(filter_signal(x, taps)[50:150], 1.0, atol=1e-3)
