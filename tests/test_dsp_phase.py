"""Tests for repro.dsp.phase."""

import numpy as np

from repro.dsp.phase import phase_derivative


def _tone(freq, fs, n, phase0=0.0):
    return np.exp(1j * (phase0 + 2 * np.pi * freq * np.arange(n) / fs))


class TestDerivatives:
    def test_tone_first_derivative_constant(self):
        x = _tone(1e5, 8e6, 1000)
        d1 = phase_derivative(x)
        assert np.allclose(d1, 2 * np.pi * 1e5 / 8e6, atol=1e-6)

    def test_derivative_length(self):
        assert phase_derivative(np.ones(10, dtype=complex)).size == 9

    def test_short_inputs(self):
        assert phase_derivative(np.ones(1, dtype=complex)).size == 0

    def test_bpsk_flip_appears_as_pi(self):
        x = np.concatenate([np.ones(10), -np.ones(10)]).astype(complex)
        d1 = phase_derivative(x)
        assert abs(abs(d1[9]) - np.pi) < 1e-9

    def test_wrap_at_high_offset(self):
        # 3 MHz at 8 Msps: per-sample step 0.75*pi, still within (-pi, pi]
        x = _tone(3e6, 8e6, 100)
        d1 = phase_derivative(x)
        assert np.allclose(d1, 0.75 * np.pi, atol=1e-6)
