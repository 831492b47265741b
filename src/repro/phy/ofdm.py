"""OFDM PHY (802.11g-style) — the paper's future-work protocol.

Section 3.3: "Since our hardware did not support monitoring OFDM
protocols, we did not explore OFDM.  We believe it should be possible to
build quick detectors for OFDM."  This module supplies the substrate for
that extension: an OFDM modulator/demodulator whose frames carry BPSK
subcarriers over a 64-point FFT with a 16-sample cyclic prefix, plus the
CP-correlation primitives the fast detector keys on.

Scaling note: real 802.11g occupies 20 MHz; an 8 Msps monitor cannot
capture it (the paper's USRP could not either).  The modem here scales
the subcarrier spacing to the capture rate — same FFT size, same CP
ratio, same detector mathematics — so the architecture extension can be
exercised and evaluated on the standard 8 MHz substrate.  DESIGN.md
records the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import DEFAULT_SAMPLE_RATE
from repro.errors import ChecksumError, DecodeError, SyncError
from repro.util.bits import bits_to_bytes, bytes_to_bits, crc32_802

FFT_SIZE = 64
CP_LEN = 16
SYMBOL_LEN = FFT_SIZE + CP_LEN

#: data-bearing subcarrier indices (+/-1..+/-26, DC and band edges unused)
_SUBCARRIERS = np.concatenate([np.arange(1, 27), np.arange(-26, 0)])
N_SUBCARRIERS = _SUBCARRIERS.size  # 52

#: fixed BPSK training sequence filling both preamble symbols
_TRAINING_SEED = 0x5EED


def _training_symbols() -> np.ndarray:
    rng = np.random.default_rng(_TRAINING_SEED)
    # np.fft computes in complex128 whatever the input dtype, so the
    # training symbols stay in that domain; the emitted waveform is cast
    # to complex64 downstream
    return (2.0 * rng.integers(0, 2, N_SUBCARRIERS) - 1.0).astype(np.complex128)


_TRAINING = _training_symbols()


@dataclass
class OfdmPacket:
    """A decoded OFDM frame."""

    payload: bytes
    start_sample: int = 0
    crc_ok: bool = True
    n_symbols: int = 0


class OfdmModem:
    """OFDM modulator + receive chain at a fixed capture rate."""

    #: number of known training symbols preceding the data
    N_TRAINING = 2

    def __init__(self, sample_rate: float = DEFAULT_SAMPLE_RATE):
        self.sample_rate = sample_rate

    # -- transmit ------------------------------------------------------------

    def _symbol_from_subcarriers(self, values: np.ndarray) -> np.ndarray:
        # np.fft's own precision (see _training_symbols); cast downstream
        spectrum = np.zeros(FFT_SIZE, dtype=np.complex128)
        spectrum[_SUBCARRIERS] = values
        # scale for unit mean time-domain power, like the other PHYs
        time = np.fft.ifft(spectrum) * (FFT_SIZE / np.sqrt(N_SUBCARRIERS))
        return np.concatenate([time[-CP_LEN:], time])

    def modulate(self, payload: bytes) -> np.ndarray:
        """One frame: 2 training symbols + BPSK data symbols.

        The body is a 2-byte length header, the payload, and a CRC-32
        over header+payload.
        """
        if len(payload) > 0xFFFF:
            raise ValueError("payload too large for the 16-bit length header")
        framed = len(payload).to_bytes(2, "little") + bytes(payload)
        body = framed + crc32_802(framed).to_bytes(4, "little")
        bits = bytes_to_bits(body)
        pad = (-bits.size) % N_SUBCARRIERS
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        symbols = [self._symbol_from_subcarriers(_TRAINING)] * self.N_TRAINING
        for i in range(0, bits.size, N_SUBCARRIERS):
            bpsk = 2.0 * bits[i : i + N_SUBCARRIERS] - 1.0
            symbols.append(self._symbol_from_subcarriers(bpsk))
        return np.concatenate(symbols).astype(np.complex64)

    def airtime(self, payload_len: int) -> float:
        nbits = (2 + payload_len + 4) * 8
        ndata = -(-nbits // N_SUBCARRIERS)
        return (self.N_TRAINING + ndata) * SYMBOL_LEN / self.sample_rate

    # -- receive -------------------------------------------------------------

    @staticmethod
    def cp_metric(samples: np.ndarray, max_span: int = 40 * SYMBOL_LEN):
        """Normalized cyclic-prefix autocorrelation, folded per alignment.

        Returns ``(best_alignment, metric)`` where metric is ~1 for OFDM
        with this FFT/CP geometry and ~0 for noise or single-carrier
        signals.  This is the fast detector's entire computation: one
        lagged product per sample plus a folded sum.
        """
        x = np.asarray(samples)[:max_span]
        if x.size < 2 * SYMBOL_LEN:
            return 0, 0.0
        lagged = x[:-FFT_SIZE] * np.conj(x[FFT_SIZE:])
        power = np.abs(x[:-FFT_SIZE]) ** 2
        n = lagged.size - (lagged.size % SYMBOL_LEN)
        if n == 0:
            return 0, 0.0
        folded = lagged[:n].reshape(-1, SYMBOL_LEN)
        power_f = power[:n].reshape(-1, SYMBOL_LEN)
        best_align, best = 0, 0.0
        corr_by_align = np.abs(folded.sum(axis=0))
        power_by_align = power_f.sum(axis=0) + 1e-30
        # a CP occupies CP_LEN consecutive alignments; sum over the window
        ext = np.concatenate([corr_by_align, corr_by_align[:CP_LEN]])
        extp = np.concatenate([power_by_align, power_by_align[:CP_LEN]])
        for align in range(SYMBOL_LEN):
            corr = ext[align : align + CP_LEN].sum()
            pwr = extp[align : align + CP_LEN].sum()
            metric = float(corr / pwr)
            if metric > best:
                best_align, best = align, metric
        return best_align, best

    def _sync(self, samples: np.ndarray) -> int:
        """Locate the first training symbol via training correlation."""
        reference = self._symbol_from_subcarriers(_TRAINING)[CP_LEN:]
        corr = np.abs(np.convolve(samples, reference[::-1].conj(), mode="valid"))
        if corr.size == 0:
            raise SyncError("candidate too short for OFDM sync")
        peaks = np.flatnonzero(corr >= 0.9 * corr.max())
        return int(peaks[0]) - CP_LEN  # convolution peak sits at the CP end

    def demodulate(self, samples: np.ndarray) -> OfdmPacket:
        """Decode one frame; raises DecodeError variants."""
        samples = np.asarray(samples, dtype=np.complex64)
        start = self._sync(samples)
        if start < 0:
            start = 0

        def fft_of(symbol_index: int) -> np.ndarray:
            lo = start + symbol_index * SYMBOL_LEN + CP_LEN
            hi = lo + FFT_SIZE
            if hi > samples.size:
                raise DecodeError("truncated OFDM frame")
            return np.fft.fft(samples[lo:hi])[_SUBCARRIERS]

        # channel estimate from the two training symbols
        channel = (fft_of(0) + fft_of(1)) / (2.0 * _TRAINING)
        if np.any(np.abs(channel) < 1e-9):
            raise DecodeError("unusable OFDM channel estimate")

        bits = []
        index = self.N_TRAINING
        payload = None
        while True:
            try:
                data = fft_of(index)
            except DecodeError:
                break
            equalized = data / channel
            # stop when a symbol no longer looks like BPSK (frame ended)
            if np.mean(np.abs(equalized.real)) < 0.3:
                break
            bits.append((equalized.real > 0).astype(np.uint8))
            index += 1
            if len(bits) > 400:
                break
        if not bits:
            raise DecodeError("no OFDM data symbols decoded")
        stream = np.concatenate(bits)
        stream = stream[: (stream.size // 8) * 8]
        body = bits_to_bytes(stream)
        if len(body) < 6:
            raise DecodeError("OFDM frame shorter than its framing")
        length = int.from_bytes(body[:2], "little")
        if 2 + length + 4 > len(body):
            raise DecodeError(f"OFDM length header {length} exceeds frame")
        framed = body[: 2 + length]
        crc = int.from_bytes(body[2 + length : 6 + length], "little")
        if crc32_802(framed) != crc:
            raise ChecksumError("OFDM frame CRC mismatch")
        payload = framed[2:]
        return OfdmPacket(
            payload=payload,
            start_sample=max(start, 0),
            n_symbols=index,
        )

    def try_demodulate(self, samples: np.ndarray) -> Optional[OfdmPacket]:
        try:
            return self.demodulate(samples)
        except DecodeError:
            return None
