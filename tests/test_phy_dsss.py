"""Tests for repro.phy.dsss."""

import numpy as np
import pytest

from repro.phy import dsss
from repro.phy.barker import symbol_template


def _correlate(samples, template, n_symbols):
    """Per-symbol correlation against the chip template, symbol 0 at
    sample 0: the receive side's first step, written out."""
    block = samples[:n_symbols * template.size].reshape(n_symbols, -1)
    return block @ template.astype(np.complex128)


class TestSymbolMaps:
    def test_dbpsk_flip_semantics(self):
        symbols = dsss.dbpsk_symbols(np.array([0, 1, 1, 0], dtype=np.uint8))
        jumps = np.angle(symbols[1:] * np.conj(symbols[:-1]))
        bits = dsss.dbpsk_bits_from_jumps(jumps)
        assert bits.tolist() == [1, 1, 0]

    def test_dbpsk_unit_magnitude(self):
        symbols = dsss.dbpsk_symbols(np.random.default_rng(0).integers(0, 2, 100))
        assert np.allclose(np.abs(symbols), 1.0)

    def test_dqpsk_round_trip(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        symbols = dsss.dqpsk_symbols(bits)
        jumps = np.angle(symbols[1:] * np.conj(symbols[:-1]))
        first_jump = np.angle(symbols[0])  # initial_phase=0 encodes dibit 0
        recovered = dsss.dqpsk_bits_from_jumps(
            np.concatenate([[first_jump], jumps])
        )
        assert np.array_equal(recovered, bits)

    def test_dqpsk_rejects_odd_bits(self):
        with pytest.raises(ValueError):
            dsss.dqpsk_symbols(np.ones(3, dtype=np.uint8))

    def test_initial_phase_continuity(self):
        symbols = dsss.dbpsk_symbols(np.array([0], dtype=np.uint8),
                                     initial_phase=np.pi / 3)
        assert np.angle(symbols[0]) == pytest.approx(np.pi / 3)


class TestWaveform:
    def test_length(self):
        symbols = dsss.dbpsk_symbols(np.zeros(10, dtype=np.uint8))
        wave = dsss.symbols_to_waveform(symbols, 8e6)
        assert wave.size == 80  # 10 us at 8 Msps

    def test_unit_envelope(self):
        symbols = dsss.dbpsk_symbols(np.ones(20, dtype=np.uint8))
        wave = dsss.symbols_to_waveform(symbols, 8e6)
        assert np.allclose(np.abs(wave), 1.0, atol=1e-6)

    def test_modulate_helpers(self):
        bits = np.ones(8, dtype=np.uint8)
        assert dsss.modulate_1mbps(bits, 8e6).size == 64
        assert dsss.modulate_2mbps(bits, 8e6).size == 32


class TestReceive:
    def test_correlate_recovers_symbols(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        symbols = dsss.dbpsk_symbols(bits)
        wave = dsss.symbols_to_waveform(symbols, 8e6)
        template = symbol_template(8e6)
        corr = _correlate(wave, template, 64)
        jumps = dsss.differential_decisions(corr)
        recovered = dsss.dbpsk_bits_from_jumps(jumps)
        assert np.array_equal(recovered, bits[1:])

    def test_differential_short_input(self):
        assert dsss.differential_decisions(np.ones(1, dtype=complex)).size == 0

    def test_noise_tolerance(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 128).astype(np.uint8)
        wave = dsss.modulate_1mbps(bits, 8e6)
        noisy = wave + 0.3 * (
            rng.normal(size=wave.size) + 1j * rng.normal(size=wave.size)
        ).astype(np.complex64)
        corr = _correlate(noisy, symbol_template(8e6), 128)
        recovered = dsss.dbpsk_bits_from_jumps(dsss.differential_decisions(corr))
        assert np.array_equal(recovered, bits[1:])
