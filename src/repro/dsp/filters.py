"""Minimal filter design: windowed-sinc FIR low-pass and Gaussian pulses.

Only what the PHY layers need — no scipy dependency in the library proper
(scipy is used in tests for cross-validation only).
"""

from __future__ import annotations

import numpy as np


def fir_lowpass(cutoff_hz: float, sample_rate: float, ntaps: int = 64) -> np.ndarray:
    """Windowed-sinc (Hamming) low-pass FIR taps with unit DC gain."""
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError("cutoff must be in (0, sample_rate/2)")
    if ntaps < 2:
        raise ValueError("ntaps must be >= 2")
    fc = cutoff_hz / sample_rate
    n = np.arange(ntaps) - (ntaps - 1) / 2.0
    taps = 2 * fc * np.sinc(2 * fc * n)
    taps *= np.hamming(ntaps)
    taps /= taps.sum()
    return taps


def gaussian_pulse(bt: float, samples_per_symbol: int, span_symbols: int = 4) -> np.ndarray:
    """Gaussian frequency-pulse taps for GFSK with bandwidth-time product ``bt``.

    Normalized to unit area so convolving a NRZ frequency sequence with the
    pulse preserves the total phase accumulated per symbol.
    """
    if bt <= 0:
        raise ValueError("bt must be positive")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    ntaps = span_symbols * samples_per_symbol + 1
    t = (np.arange(ntaps) - (ntaps - 1) / 2.0) / samples_per_symbol
    sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * bt)
    taps = np.exp(-(t**2) / (2.0 * sigma**2))
    taps /= taps.sum()
    return taps


def filter_signal(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Convolve with 'same' alignment, preserving the input length."""
    x = np.asarray(samples)
    if x.size == 0:
        return x
    return np.convolve(x, np.asarray(taps), mode="same")
