"""DBPSK / DQPSK symbol mapping and Barker-spread waveform synthesis.

802.11b DSSS at 1 and 2 Mbps: bits map to *differential* phase jumps at
1 MSym/s, each symbol is spread by the 11-chip Barker sequence at
11 Mchip/s, and the emulator captures the result at the monitor's sample
rate via fractional chip indexing (the 11:8 ratio of Section 4.5).
"""

from __future__ import annotations

import numpy as np

from repro.constants import WIFI_CHIP_RATE, WIFI_SYMBOL_RATE
from repro.dsp.resample import sample_held
from repro.phy.barker import spread_symbols

#: Differential phase jump per DBPSK bit (802.11: "1" flips phase).
_DBPSK_JUMPS = np.array([0.0, np.pi])

#: Differential phase jump per DQPSK dibit (b1 b0): 00, 01, 11, 10 Gray map.
_DQPSK_JUMPS = {0b00: 0.0, 0b01: np.pi / 2, 0b11: np.pi, 0b10: 3 * np.pi / 2}


def dbpsk_symbols(bits: np.ndarray, initial_phase: float = 0.0) -> np.ndarray:
    """Map bits to DBPSK symbols (complex unit vectors)."""
    bits = np.asarray(bits, dtype=np.uint8)
    jumps = _DBPSK_JUMPS[bits]
    phases = initial_phase + np.cumsum(jumps)
    # symbol-domain (differential phase) math; symbols_to_waveform casts
    # to complex64 at the waveform boundary
    return np.exp(1j * phases)  # rfdump: noqa[RFD202]


def dqpsk_symbols(bits: np.ndarray, initial_phase: float = 0.0) -> np.ndarray:
    """Map bit pairs (LSB-first dibits) to DQPSK symbols."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 2 != 0:
        raise ValueError("DQPSK needs an even number of bits")
    dibits = bits[0::2] | (bits[1::2] << 1)
    jumps = np.array([_DQPSK_JUMPS[int(d)] for d in dibits])
    phases = initial_phase + np.cumsum(jumps)
    # symbol-domain math, cast at the waveform boundary (as dbpsk_symbols)
    return np.exp(1j * phases)  # rfdump: noqa[RFD202]


def dqpsk_bits_from_jumps(jumps: np.ndarray) -> np.ndarray:
    """Inverse of the DQPSK map: phase jumps -> LSB-first bit pairs."""
    jumps = np.mod(np.asarray(jumps), 2 * np.pi)
    quadrant = np.rint(jumps / (np.pi / 2)).astype(np.int64) % 4
    dibit_for_quadrant = np.array([0b00, 0b01, 0b11, 0b10], dtype=np.uint8)
    dibits = dibit_for_quadrant[quadrant]
    bits = np.empty(dibits.size * 2, dtype=np.uint8)
    bits[0::2] = dibits & 1
    bits[1::2] = (dibits >> 1) & 1
    return bits


def symbols_to_waveform(
    symbols: np.ndarray, sample_rate: float, chip_phase: float = 0.0
) -> np.ndarray:
    """Barker-spread symbols and sample the chip stream at ``sample_rate``.

    The chip stream runs at 11 Mchip/s; the output holds each chip's value
    for the capture samples that fall inside it, reproducing the unaligned
    11:8 chips-to-samples structure a real 8 Msps capture sees.
    """
    chips = spread_symbols(np.asarray(symbols))
    duration = symbols.size / WIFI_SYMBOL_RATE
    n_out = int(round(duration * sample_rate))
    return sample_held(chips, n_out, WIFI_CHIP_RATE, sample_rate, chip_phase).astype(
        np.complex64
    )


def modulate_1mbps(bits: np.ndarray, sample_rate: float, chip_phase: float = 0.0) -> np.ndarray:
    """DBPSK + Barker waveform for a 1 Mbps bit stream."""
    return symbols_to_waveform(dbpsk_symbols(bits), sample_rate, chip_phase)


def modulate_2mbps(bits: np.ndarray, sample_rate: float, chip_phase: float = 0.0) -> np.ndarray:
    """DQPSK + Barker waveform for a 2 Mbps bit stream."""
    return symbols_to_waveform(dqpsk_symbols(bits), sample_rate, chip_phase)


# ---------------------------------------------------------------------------
# Receive-side primitives
# ---------------------------------------------------------------------------


def correlate_symbols(
    samples: np.ndarray, template: np.ndarray, n_symbols: int, offset: int = 0
) -> np.ndarray:
    """Per-symbol correlation of the capture stream against a chip template.

    ``template`` is the per-symbol sample template from
    :func:`repro.phy.barker.symbol_template`; ``offset`` is the sample index
    of the first symbol boundary.  Returns ``n_symbols`` complex
    correlations.
    """
    sps = template.size
    samples = np.asarray(samples)
    need = offset + n_symbols * sps
    if need > samples.size:
        n_symbols = max((samples.size - offset) // sps, 0)
    # per-symbol correlation deliberately accumulates at float64 for
    # decision margin; the empty-result sentinel matches that dtype
    if n_symbols <= 0:
        return np.zeros(0, dtype=np.complex128)  # rfdump: noqa[RFD201]
    block = samples[offset : offset + n_symbols * sps].reshape(n_symbols, sps)
    return block @ template.astype(np.complex128)  # rfdump: noqa[RFD201]


def differential_decisions(correlations: np.ndarray) -> np.ndarray:
    """Symbol-to-symbol phase jumps from a correlation sequence.

    Entry ``k`` is the phase of ``y[k+1] * conj(y[k])`` — the differential
    quantity both DBPSK and DQPSK decisions are made on.
    """
    y = np.asarray(correlations)
    if y.size < 2:
        return np.zeros(0, dtype=np.float64)
    return np.angle(y[1:] * np.conj(y[:-1]))


def dbpsk_bits_from_jumps(jumps: np.ndarray) -> np.ndarray:
    """DBPSK decisions: |jump| > pi/2 means a phase flip, i.e. bit 1."""
    jumps = np.asarray(jumps)
    return (np.abs(jumps) > np.pi / 2).astype(np.uint8)


def dbpsk_bits_at_lag(correlations: np.ndarray, lag: int) -> np.ndarray:
    """DBPSK decisions on ``y[i+lag] * conj(y[i])``: entry ``a + m * lag``
    is bit ``m`` of ``dbpsk_bits_from_jumps(differential_decisions(
    y[a::lag]))``, every symbol alignment from one product.

    A phase beyond a quarter turn is a negative real part.  The two can
    part only where rounding decides — a real part under 2**-20 of the
    imaginary one, or a value that is not finite — and those few
    entries are decided on the phase itself.
    """
    y = np.asarray(correlations)
    if y.size <= lag:
        return np.zeros(0, dtype=np.uint8)
    product = y[lag:] * np.conj(y[:-lag])
    bits = (product.real < 0).view(np.uint8)
    unsure = np.flatnonzero(
        ~(np.abs(product.real) > 2.0 ** -20 * np.abs(product.imag)))
    bits[unsure] = dbpsk_bits_from_jumps(np.angle(product[unsure]))
    return bits
