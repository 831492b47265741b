"""802.15.4 (ZigBee) 2.4 GHz O-QPSK PHY and minimal MAC framing.

Each 4-bit symbol selects one of 16 near-orthogonal 32-chip PN sequences
(2 Mchip/s); even chips modulate I and odd chips modulate Q with a
half-chip offset (O-QPSK).  A frame is: 8 zero-symbol preamble, SFD 0xA7,
one-byte PHR (length), PSDU, CRC-16 FCS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import (
    DEFAULT_SAMPLE_RATE,
    ZIGBEE_CHIP_RATE,
    ZIGBEE_CHIPS_PER_SYMBOL,
    ZIGBEE_SYMBOL_RATE,
)
from repro.errors import ChecksumError, DecodeError, SyncError
from repro.util.bits import bytes_to_bits, crc16_ccitt

#: Base PN sequence for symbol 0 (802.15.4-2006 Table 24), chips 0/1.
_BASE_PN = np.array(
    [1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
     0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0],
    dtype=np.uint8,
)

_SFD = 0xA7
_PREAMBLE_SYMBOLS = 8


def pn_table() -> np.ndarray:
    """All 16 chip sequences, shape (16, 32), values 0/1.

    Symbols 1..7 are 4k-chip left-rotations of the base sequence; symbols
    8..15 are the same with the odd-indexed (Q) chips inverted.
    """
    table = np.empty((16, ZIGBEE_CHIPS_PER_SYMBOL), dtype=np.uint8)
    for s in range(8):
        table[s] = np.roll(_BASE_PN, 4 * s)
    table[8:] = table[:8]
    table[8:, 1::2] ^= 1
    return table


_PN_TABLE = pn_table()


def symbols_from_bytes(data: bytes) -> np.ndarray:
    """Bytes -> 4-bit symbols, low nibble first (802.15.4 order)."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    out = np.empty(arr.size * 2, dtype=np.uint8)
    out[0::2] = arr & 0xF
    out[1::2] = arr >> 4
    return out


def bytes_from_symbols(symbols: np.ndarray) -> bytes:
    """Inverse of :func:`symbols_from_bytes`."""
    symbols = np.asarray(symbols, dtype=np.uint8)
    if symbols.size % 2:
        raise ValueError("symbol count must be even")
    return (symbols[0::2] | (symbols[1::2] << 4)).astype(np.uint8).tobytes()


@dataclass
class ZigbeePacket:
    """A decoded 802.15.4 frame."""

    psdu: bytes
    start_sample: int = 0
    fcs_ok: bool = True


def build_frame(psdu: bytes) -> bytes:
    """Preamble + SFD + PHR + PSDU + FCS as the raw byte stream."""
    if len(psdu) > 125:
        raise ValueError("PSDU limited to 125 bytes (+2 FCS)")
    fcs = crc16_ccitt(bytes_to_bits(psdu), init=0x0000, complement=False)
    body = bytes(psdu) + bytes([fcs & 0xFF, fcs >> 8])
    return bytes(_PREAMBLE_SYMBOLS // 2) + bytes([_SFD, len(body)]) + body


class ZigbeeModulator:
    """Renders 802.15.4 frames to O-QPSK complex baseband."""

    def __init__(self, sample_rate: float = DEFAULT_SAMPLE_RATE):
        spc = sample_rate / ZIGBEE_CHIP_RATE
        if not float(spc).is_integer() or spc < 2 or int(spc) % 2:
            raise ValueError(
                "sample_rate must be an even integer multiple of the 2 Mchip/s rate"
            )
        self.sample_rate = sample_rate
        self.spc = int(spc)

    def _chips_to_waveform(self, chips: np.ndarray) -> np.ndarray:
        """O-QPSK: even chips on I, odd chips on Q delayed by half a chip."""
        nrz = 2.0 * chips.astype(np.float64) - 1.0
        even, odd = nrz[0::2], nrz[1::2]
        # each I/Q chip lasts two chip periods (half the stream feeds each rail)
        i_rail = np.repeat(even, 2 * self.spc)
        q_rail = np.repeat(odd, 2 * self.spc)
        delay = self.spc  # half of a rail chip period
        n = i_rail.size + delay
        wave = np.zeros(n, dtype=np.complex64)
        wave[: i_rail.size] += i_rail
        wave[delay : delay + q_rail.size] += 1j * q_rail
        return wave / np.sqrt(2.0)

    def modulate(self, psdu: bytes) -> np.ndarray:
        """Complex64 waveform for one frame."""
        frame = build_frame(psdu)
        symbols = symbols_from_bytes(frame)
        chips = _PN_TABLE[symbols].ravel()
        return self._chips_to_waveform(chips)

    def airtime(self, psdu_len: int) -> float:
        """On-air duration of a frame with ``psdu_len`` PSDU bytes."""
        nsymbols = (6 + psdu_len + 2) * 2  # preamble+SFD+PHR+PSDU+FCS
        return nsymbols / ZIGBEE_SYMBOL_RATE


class ZigbeeDemodulator:
    """802.15.4 receive chain: despreading by template correlation."""

    def __init__(self, sample_rate: float = DEFAULT_SAMPLE_RATE):
        self.modulator = ZigbeeModulator(sample_rate)
        self.sample_rate = sample_rate
        samples_per_symbol = self.modulator.spc * ZIGBEE_CHIPS_PER_SYMBOL
        self.sps = samples_per_symbol
        # symbol waveform templates, including the trailing half-chip tail
        self._templates = np.stack(
            [self.modulator._chips_to_waveform(_PN_TABLE[s])[: self.sps] for s in range(16)]
        )

    def _correlate_symbols(self, samples: np.ndarray, offset: int, nsym: int) -> np.ndarray:
        """argmax-template symbol decisions starting at ``offset``."""
        block = samples[offset : offset + nsym * self.sps]
        nsym = block.size // self.sps
        if nsym <= 0:
            return np.zeros(0, dtype=np.uint8)
        frames = block[: nsym * self.sps].reshape(nsym, self.sps)
        corr = frames @ self._templates.conj().T  # (nsym, 16)
        return np.argmax(corr.real, axis=1).astype(np.uint8)

    def _find_start(self, samples: np.ndarray) -> int:
        """Locate a preamble symbol boundary via symbol-0 correlation.

        The correlation peaks at *every* preamble symbol; we take the
        earliest near-maximum peak so the SFD is still downstream, and
        leave symbol-level ambiguity to the SFD search in
        :meth:`demodulate`.
        """
        t0 = self._templates[0]
        # only the first ten symbol periods are searched, so only the
        # samples those correlation lags read are correlated
        head = samples[: 10 * self.sps + t0.size - 1]
        corr = np.convolve(head, t0[::-1].conj(), mode="valid")
        limit = min(corr.size, 10 * self.sps)
        if limit <= 0:
            raise SyncError("candidate too short for ZigBee preamble search")
        mag = np.abs(corr[:limit])
        candidates = np.flatnonzero(mag >= 0.9 * mag.max())
        return int(candidates[0])

    def demodulate(self, samples: np.ndarray) -> ZigbeePacket:
        """Decode one candidate frame; raises DecodeError variants."""
        samples = np.asarray(samples, dtype=np.complex64)
        start = self._find_start(samples)
        # Estimate the constant channel phase from the first preamble symbol
        # and derotate, so the coherent despreader sees aligned axes.
        pilot = samples[start : start + self.sps]
        rotation = np.vdot(self._templates[0][: pilot.size], pilot)
        if np.abs(rotation) > 0:
            # a scalar phasor: NEP-50 weak promotion keeps the complex64
            # sample buffer complex64
            samples = samples * np.exp(-1j * np.angle(rotation))
        # Decode the head with slack and locate the SFD symbol pair: the
        # correlation lock may sit on any of the 8 preamble symbols.
        head_symbols = _PREAMBLE_SYMBOLS + 4 + 2  # preamble + SFD + PHR + slack
        symbols = self._correlate_symbols(samples, start, head_symbols)
        if symbols.size < 4:
            raise DecodeError("truncated ZigBee header")
        sfd_pair = (_SFD & 0xF, _SFD >> 4)
        sfd_at = -1
        for k in range(symbols.size - 3):
            if (int(symbols[k]), int(symbols[k + 1])) == sfd_pair:
                sfd_at = k
                break
        if sfd_at < 0:
            raise SyncError("no ZigBee SFD found")
        if sfd_at + 4 > symbols.size:
            raise DecodeError("truncated ZigBee header")
        length = int(symbols[sfd_at + 2]) | (int(symbols[sfd_at + 3]) << 4)
        body_off = start + (sfd_at + 4) * self.sps
        body_syms = self._correlate_symbols(samples, body_off, 2 * length)
        if body_syms.size < 2 * length:
            raise DecodeError("truncated ZigBee frame body")
        body = bytes_from_symbols(body_syms)
        psdu, fcs_raw = body[:-2], body[-2:]
        fcs = crc16_ccitt(bytes_to_bits(psdu), init=0x0000, complement=False)
        if fcs != (fcs_raw[0] | (fcs_raw[1] << 8)):
            raise ChecksumError("802.15.4 FCS mismatch")
        frame_start = start - (_PREAMBLE_SYMBOLS - sfd_at) * self.sps
        return ZigbeePacket(psdu=psdu, start_sample=max(frame_start, 0))

    def try_demodulate(self, samples: np.ndarray) -> Optional[ZigbeePacket]:
        """Like :meth:`demodulate` but returns None on any decode failure."""
        try:
            return self.demodulate(samples)
        except DecodeError:
            return None
