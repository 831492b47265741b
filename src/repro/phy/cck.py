"""Simplified CCK (5.5 / 11 Mbps 802.11b) waveform synthesis.

CCK replaces Barker spreading with 8-chip complex codewords at the same
11 Mchip/s rate.  The monitoring system never *decodes* CCK payloads (the
paper's USRP-limited prototype could not either); CCK matters to the
reproduction because real traffic mixes (Table 4) are dominated by
high-rate packets whose PLCP preamble/header is still 1 Mbps DBPSK — the
"ideal headers only" filter.  We therefore implement the real CCK chip
construction for waveform generation and skip the receive chain.
"""

from __future__ import annotations

import numpy as np

from repro.constants import WIFI_CHIP_RATE
from repro.dsp.resample import sample_held

#: QPSK phase for a dibit (d1 d0), per 802.11b Table 110 style Gray map.
_DIBIT_PHASE = {0b00: 0.0, 0b01: np.pi / 2, 0b10: np.pi, 0b11: 3 * np.pi / 2}


def _dibits(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 2:
        raise ValueError("CCK needs an even number of bits")
    return bits[0::2] | (bits[1::2] << 1)


def cck_codeword(phi1: float, phi2: float, phi3: float, phi4: float) -> np.ndarray:
    """The 8-chip CCK codeword for the four phase parameters."""
    # symbol-domain math at full precision (the table doubles as the
    # receive-side ML correlation template); modulate_cck casts to
    # complex64 at the waveform boundary
    c = np.array(
        [
            np.exp(1j * (phi1 + phi2 + phi3 + phi4)),
            np.exp(1j * (phi1 + phi3 + phi4)),
            np.exp(1j * (phi1 + phi2 + phi4)),
            -np.exp(1j * (phi1 + phi4)),
            np.exp(1j * (phi1 + phi2 + phi3)),
            np.exp(1j * (phi1 + phi3)),
            -np.exp(1j * (phi1 + phi2)),
            np.exp(1j * phi1),
        ]
    )
    return c


def cck_chips_11mbps(bits: np.ndarray, initial_phase: float = 0.0) -> np.ndarray:
    """Chip stream for 11 Mbps CCK: 8 bits -> one 8-chip codeword."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8:
        raise ValueError("11 Mbps CCK consumes bits 8 at a time")
    dibits = _dibits(bits)
    phi1 = initial_phase
    out = []
    for i in range(0, dibits.size, 4):
        d1, d2, d3, d4 = (int(d) for d in dibits[i : i + 4])
        phi1 = phi1 + _DIBIT_PHASE[d1]  # differential on phi1
        out.append(cck_codeword(phi1, _DIBIT_PHASE[d2], _DIBIT_PHASE[d3], _DIBIT_PHASE[d4]))
    # the empty-stream sentinel matches the (float64-domain) codeword dtype
    return np.concatenate(out) if out else np.zeros(0, dtype=np.complex128)


def cck_chips_5_5mbps(bits: np.ndarray, initial_phase: float = 0.0) -> np.ndarray:
    """Chip stream for 5.5 Mbps CCK: 4 bits -> one 8-chip codeword."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 4:
        raise ValueError("5.5 Mbps CCK consumes bits 4 at a time")
    phi1 = initial_phase
    out = []
    for i in range(0, bits.size, 4):
        d1 = int(bits[i]) | (int(bits[i + 1]) << 1)
        b2, b3 = int(bits[i + 2]), int(bits[i + 3])
        phi1 = phi1 + _DIBIT_PHASE[d1]
        phi2 = b2 * np.pi + np.pi / 2
        phi3 = 0.0
        phi4 = b3 * np.pi
        out.append(cck_codeword(phi1, phi2, phi3, phi4))
    # the empty-stream sentinel matches the (float64-domain) codeword dtype
    return np.concatenate(out) if out else np.zeros(0, dtype=np.complex128)


def modulate_cck(bits: np.ndarray, rate_mbps: float, sample_rate: float,
                 chip_phase: float = 0.0, initial_phase: float = 0.0) -> np.ndarray:
    """CCK payload waveform at the capture rate.

    ``initial_phase`` chains phi1's differential from the PLCP header's
    final DBPSK symbol, as the standard requires — the receive side uses
    the measured header phase as its differential reference.
    """
    if rate_mbps == 11.0:
        chips = cck_chips_11mbps(bits, initial_phase)
    elif rate_mbps == 5.5:
        chips = cck_chips_5_5mbps(bits, initial_phase)
    else:
        raise ValueError(f"CCK rates are 5.5 and 11 Mbps, not {rate_mbps}")
    duration = bits.size / (rate_mbps * 1e6)
    n_out = int(round(duration * sample_rate))
    return sample_held(chips, n_out, WIFI_CHIP_RATE, sample_rate, chip_phase).astype(np.complex64)


# ---------------------------------------------------------------------------
# Receive side ("USRP2 mode", Section 5.4)
# ---------------------------------------------------------------------------
#
# The paper's USRP 1 captured only 8 of the 22 MHz channel, so CCK rates
# could not be decoded.  "Future, more powerful SDRs will be able to
# sample at higher rates ... and detect higher rate protocols."  At any
# capture rate that is an integer multiple of the 11 Mchip/s rate (e.g.
# a USRP2-class 22 Msps), codeword boundaries align with samples and a
# maximum-likelihood codeword correlator decodes CCK directly.

#: phase jump -> dibit, inverse of _DIBIT_PHASE
_QUADRANT_TO_DIBIT = {0: 0b00, 1: 0b01, 2: 0b10, 3: 0b11}


def _dibit_bits(dibit: int):
    return [dibit & 1, (dibit >> 1) & 1]


def _quantize_dibit(jump: float) -> int:
    quadrant = int(np.rint(np.mod(jump, 2 * np.pi) / (np.pi / 2))) % 4
    return _QUADRANT_TO_DIBIT[quadrant]


class CckDemodulator:
    """Maximum-likelihood CCK codeword decoder at chip-aligned rates."""

    def __init__(self, sample_rate: float, rate_mbps: float):
        if rate_mbps not in (5.5, 11.0):
            raise ValueError(f"CCK rates are 5.5 and 11 Mbps, not {rate_mbps}")
        spc = sample_rate / WIFI_CHIP_RATE
        if not float(spc).is_integer() or spc < 1:
            raise ValueError(
                "CCK demodulation needs a sample rate that is an integer "
                f"multiple of {WIFI_CHIP_RATE:.0f} chip/s (e.g. 22 Msps)"
            )
        self.sample_rate = sample_rate
        self.rate_mbps = rate_mbps
        self.spc = int(spc)
        self.samples_per_codeword = 8 * self.spc
        self._keys, self._templates = self._build_templates()

    def _build_templates(self):
        keys = []
        words = []
        if self.rate_mbps == 11.0:
            for d2 in range(4):
                for d3 in range(4):
                    for d4 in range(4):
                        keys.append((d2, d3, d4))
                        words.append(cck_codeword(
                            0.0, _DIBIT_PHASE[d2], _DIBIT_PHASE[d3],
                            _DIBIT_PHASE[d4],
                        ))
        else:
            for b2 in range(2):
                for b3 in range(2):
                    keys.append((b2, b3))
                    words.append(cck_codeword(
                        0.0, b2 * np.pi + np.pi / 2, 0.0, b3 * np.pi
                    ))
        templates = np.stack([np.repeat(w, self.spc) for w in words])
        return keys, templates

    def bits_per_codeword(self) -> int:
        return 8 if self.rate_mbps == 11.0 else 4

    def demodulate(self, samples: np.ndarray, nbits: int,
                   reference_phase: float = 0.0) -> np.ndarray:
        """Decode ``nbits`` payload bits from chip-aligned samples.

        ``reference_phase`` is the measured phase of the PLCP header's
        final symbol — phi1's differential anchor.  Any constant channel
        rotation cancels because it is present in both the reference and
        every codeword correlation.
        """
        bpc = self.bits_per_codeword()
        if nbits % bpc:
            raise ValueError(f"bit count {nbits} not a multiple of {bpc}")
        ncw = nbits // bpc
        need = ncw * self.samples_per_codeword
        samples = np.asarray(samples)
        if samples.size < need:
            raise ValueError("not enough samples for the requested bits")
        blocks = samples[:need].reshape(ncw, self.samples_per_codeword)
        corr = blocks @ self._templates.conj().T  # (ncw, n_codewords)
        best = np.argmax(np.abs(corr), axis=1)
        phases = np.angle(corr[np.arange(ncw), best])

        bits = []
        prev = reference_phase
        for i in range(ncw):
            d1 = _quantize_dibit(phases[i] - prev)
            prev = phases[i]
            bits.extend(_dibit_bits(d1))
            key = self._keys[best[i]]
            if self.rate_mbps == 11.0:
                for d in key:
                    bits.extend(_dibit_bits(d))
            else:
                bits.extend(key)
        return np.array(bits, dtype=np.uint8)
