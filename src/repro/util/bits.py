"""Bit manipulation, CRCs and the LFSRs used by the 2.4 GHz protocols.

Bits are represented throughout as numpy ``uint8`` arrays of 0/1 values,
least-significant-bit-first within each byte (the on-air order for both
802.11 and Bluetooth).
"""

from __future__ import annotations

import binascii
import zlib
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# Bit <-> byte packing
# ---------------------------------------------------------------------------


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Expand bytes into an LSB-first bit array (uint8 of 0/1)."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr, bitorder="little")


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack an LSB-first bit array back into bytes.

    The bit count must be a multiple of 8.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8 != 0:
        raise ValueError(f"bit count {bits.size} is not a multiple of 8")
    return np.packbits(bits, bitorder="little").tobytes()


def pack_uint(value: int, nbits: int) -> np.ndarray:
    """Encode ``value`` as ``nbits`` LSB-first bits."""
    if value < 0 or value >= (1 << nbits):
        raise ValueError(f"value {value} does not fit in {nbits} bits")
    return np.array([(value >> i) & 1 for i in range(nbits)], dtype=np.uint8)


def unpack_uint(bits: np.ndarray) -> int:
    """Decode LSB-first bits into an unsigned integer."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# ---------------------------------------------------------------------------
# CRCs
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _crc_table(poly: int, nbits: int) -> tuple:
    """Register contribution of each top byte after eight zero bits."""
    top, mask = 1 << (nbits - 1), (1 << nbits) - 1
    table = []
    for byte in range(256):
        reg = byte << (nbits - 8)
        for _ in range(8):
            reg = ((reg << 1) ^ poly if reg & top else reg << 1) & mask
        table.append(reg)
    return tuple(table)


def _crc_bits(bits: np.ndarray, poly: int, nbits: int, init: int) -> int:
    """CRC over an LSB-first bit stream (MSB-first register, ``nbits >= 8``).

    Whole bytes of the stream go through :func:`_crc_table` (for the
    CCITT polynomial, the same step in C: ``binascii.crc_hqx``); only
    the tail of fewer than eight bits is shifted in one at a time.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    mask = (1 << nbits) - 1
    reg = init & mask
    whole = bits.size - bits.size % 8
    packed = np.packbits(bits[:whole])
    if (poly & mask, nbits) == (0x1021, 16):
        reg = binascii.crc_hqx(packed.tobytes(), reg)
    else:
        table = _crc_table(poly & mask, nbits)
        for byte in packed.tolist():
            reg = ((reg << 8) & mask) ^ table[(reg >> (nbits - 8)) ^ byte]
    for bit in bits[whole:].tolist():
        fb = (reg >> (nbits - 1)) ^ bit
        reg = (reg << 1) & mask
        if fb:
            reg ^= poly & mask
    return reg


def crc16_ccitt(bits: np.ndarray, init: int = 0xFFFF, complement: bool = True) -> int:
    """CRC-16-CCITT (x^16 + x^12 + x^5 + 1) over a bit stream.

    With ``complement=True`` this matches the 802.11b PLCP header CRC,
    which transmits the ones-complement of the shift register.
    """
    reg = _crc_bits(bits, 0x1021, 16, init)
    return (reg ^ 0xFFFF) if complement else reg


def bt_crc(bits: np.ndarray, uap: int = 0x00) -> int:
    """Bluetooth payload CRC-16 (CCITT polynomial, UAP-derived init)."""
    init = (uap & 0xFF) << 8
    return _crc_bits(bits, 0x1021, 16, init)


def bt_hec(header_bits: np.ndarray, uap: int = 0x00) -> int:
    """Bluetooth 8-bit Header Error Check.

    Generator g(D) = D^8 + D^7 + D^5 + D^2 + D + 1 (0xA7), register
    initialised with the device UAP.
    """
    return _crc_bits(header_bits, 0xA7, 8, uap & 0xFF)


def bt_hec_table(uap: int = 0x00) -> np.ndarray:
    """``bt_hec`` of every 10-bit header (LSB-first value) for one UAP."""
    info = np.arange(1 << 10)
    reg = np.full(info.shape, uap & 0xFF)
    for i in range(10):
        fb = (reg >> 7) ^ ((info >> i) & 1)
        reg = ((reg << 1) & 0xFF) ^ (fb * 0xA7)
    return reg.astype(np.uint8)


def crc32_802(data: bytes) -> int:
    """IEEE 802 CRC-32 (the 802.11 MAC FCS) over bytes — zlib's CRC-32."""
    return zlib.crc32(data)


# ---------------------------------------------------------------------------
# LFSRs: 802.11b scrambler and Bluetooth whitening
# ---------------------------------------------------------------------------


class Scrambler80211:
    """802.11b self-synchronizing scrambler, G(z) = z^-4 + z^-7.

    The same structure scrambles at the transmitter and descrambles at the
    receiver; descrambling self-synchronizes after 7 bits, which is why the
    PLCP preamble carries 128 scrambled ones for the receiver to lock on.
    """

    #: Seed used for the long preamble per 802.11-1999 (0x1B, LSB = s[0]).
    LONG_PREAMBLE_SEED = 0b1101100

    def __init__(self, seed: int = LONG_PREAMBLE_SEED):
        self._state = seed & 0x7F

    def scramble(self, bits: np.ndarray) -> np.ndarray:
        """Scramble a bit stream (updates internal state)."""
        bits = np.asarray(bits, dtype=np.uint8)
        out = np.empty_like(bits)
        state = self._state
        for i, bit in enumerate(bits):
            fb = ((state >> 3) ^ (state >> 6)) & 1
            scrambled = int(bit) ^ fb
            out[i] = scrambled
            state = ((state << 1) | scrambled) & 0x7F
        self._state = state
        return out

    def descramble(self, bits: np.ndarray) -> np.ndarray:
        """Descramble a received bit stream (updates internal state)."""
        bits = np.asarray(bits, dtype=np.uint8)
        out = np.empty_like(bits)
        state = self._state
        for i, bit in enumerate(bits):
            fb = ((state >> 3) ^ (state >> 6)) & 1
            out[i] = int(bit) ^ fb
            state = ((state << 1) | int(bit)) & 0x7F
        self._state = state
        return out


def descramble_stream(bits: np.ndarray, stride: int = 1) -> np.ndarray:
    """Vectorized 802.11b descramble of a long received bit stream.

    Because the scrambler is self-synchronizing, the descrambler output is
    a pure feed-forward function of the received bits:
    ``out[i] = in[i] ^ in[i-4] ^ in[i-7]`` (prior state assumed zero).  The
    first 7 outputs are therefore unreliable, which the 128-bit SYNC field
    absorbs.  ``bits`` may hold ``stride`` streams interleaved (bit ``m``
    of stream ``a`` at ``a + m * stride``); each is descrambled on its own.
    """
    b = np.asarray(bits, dtype=np.uint8)
    out = b.copy()
    if b.size > 4 * stride:
        out[4 * stride:] ^= b[:-4 * stride]
    if b.size > 7 * stride:
        out[7 * stride:] ^= b[:-7 * stride]
    return out


def _whitening_sequence():
    """One period of the x^7 + x^4 + 1 output, and each state's place in it."""
    sequence = np.zeros(127, dtype=np.uint8)
    phase_of = np.zeros(128, dtype=np.intp)
    state = 0x40
    for phase in range(127):
        phase_of[state] = phase
        out = state >> 6
        sequence[phase] = out
        state = (((state << 1) & 0x7F) | out) ^ (out << 4)
    return sequence, phase_of


_WHITENING_SEQUENCE, _WHITENING_PHASE = _whitening_sequence()
#: the sequence repeated past any phase plus a DH5 payload (2,744 bits)
_WHITENING_TILED = np.tile(_WHITENING_SEQUENCE, 24)
_WHITENING_TILED.flags.writeable = False


class BluetoothWhitener:
    """Bluetooth data whitening LFSR, polynomial x^7 + x^4 + 1.

    Whitening and de-whitening are the same XOR operation; the register is
    seeded from the master clock bits CLK[6:1] with bit 6 forced to 1.
    The register runs through one 127-bit m-sequence whatever the seed,
    so a seed is a phase of that sequence and the state is kept as one.
    """

    def __init__(self, clock: int = 0):
        self._phase = int(_WHITENING_PHASE[(clock & 0x3F) | 0x40])

    def sequence(self, nbits: int) -> np.ndarray:
        """The next ``nbits`` whitening bits (advances the state), read
        only."""
        phase, self._phase = self._phase, (self._phase + nbits) % 127
        if phase + nbits <= _WHITENING_TILED.size:
            return _WHITENING_TILED[phase: phase + nbits]
        return np.resize(np.roll(_WHITENING_SEQUENCE, -phase), nbits)

    def process(self, bits: np.ndarray) -> np.ndarray:
        """XOR the whitening sequence onto ``bits`` (updates state)."""
        bits = np.asarray(bits, dtype=np.uint8)
        return bits ^ self.sequence(bits.size)
