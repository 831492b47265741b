"""Forward error correction used by Bluetooth baseband packets.

* rate 1/3: each bit transmitted three times, majority-decoded — protects
  the 18-bit packet header;
* rate 2/3: shortened (15,10) Hamming code, generator
  g(D) = D^5 + D^4 + D^2 + 1 — protects DM payloads.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import DecodeError

#: generator polynomial for the (15,10) shortened Hamming code, as a bit
#: vector of D^0..D^5 coefficients: 1 + D^2 + D^4 + D^5.
_G1510 = 0b110101


def repeat3_encode(bits: np.ndarray) -> np.ndarray:
    """Rate-1/3 repetition encode: b -> b b b (bitwise interleaved)."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.repeat(bits, 3)


def repeat3_decode(coded: np.ndarray) -> np.ndarray:
    """Majority decode a rate-1/3 repetition stream."""
    coded = np.asarray(coded, dtype=np.uint8)
    if coded.size % 3 != 0:
        raise DecodeError(f"repetition stream length {coded.size} not divisible by 3")
    groups = coded.reshape(-1, 3)
    return (groups.sum(axis=1) >= 2).astype(np.uint8)


def _poly_mod(dividend, nbits: int):
    """Remainder of dividend / g(D) over GF(2), dividend has nbits bits
    (an int, or an array of them)."""
    for shift in range(nbits - 1, 4, -1):
        dividend = dividend ^ (((dividend >> shift) & 1) * (_G1510 << (shift - 5)))
    return dividend & 0x1F


@lru_cache(maxsize=None)
def _tables():
    """``(parity, decoded)``: the parity bits of every 10-bit info word,
    and the info word of every 15-bit received word.

    A received word with a non-zero syndrome is corrected at the one bit
    position that syndrome names, or decodes to ``_UNCORRECTABLE`` when
    no single-bit error has it.  Built on first use: only DM packets
    carry this code.
    """
    parity = _poly_mod(np.arange(1 << 10, dtype=np.int16) << 5, 15)
    flip = np.zeros(32, dtype=np.int16)  # syndrome -> bit to flip
    correctable = np.zeros(32, dtype=bool)
    correctable[0] = True
    for k in range(15):
        syndrome = _poly_mod(1 << (14 - k), 15)
        flip[syndrome] = 1 << (14 - k)
        correctable[syndrome] = True
    words = np.arange(1 << 15, dtype=np.int16)
    # the code is linear and systematic: a word's syndrome is the parity
    # of its info bits XOR its own parity bits
    syndrome = parity[words >> 5] ^ (words & 0x1F)
    decoded = (words ^ flip[syndrome]) >> 5
    decoded[~correctable[syndrome]] = _UNCORRECTABLE
    return parity, decoded


_UNCORRECTABLE = -1
#: MSB-first bit weights of a 15-bit codeword / a 10-bit info word
_W15 = 1 << np.arange(14, -1, -1)
_W10 = 1 << np.arange(9, -1, -1)


def hamming1510_encode(bits: np.ndarray) -> np.ndarray:
    """Rate-2/3 encode: each 10 info bits -> 15-bit systematic codeword.

    Input length must be a multiple of 10 (the transmitter zero-pads per
    the Bluetooth spec; callers handle padding).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 10 != 0:
        raise ValueError("rate-2/3 FEC consumes bits 10 at a time")
    info = bits.reshape(-1, 10) @ _W10
    words = (info << 5) | _tables()[0][info]
    return ((words[:, None] & _W15) != 0).astype(np.uint8).ravel()


def hamming1510_decode(coded: np.ndarray) -> np.ndarray:
    """Rate-2/3 decode with single-bit error correction per codeword."""
    coded = np.asarray(coded, dtype=np.uint8)
    if coded.size % 15 != 0:
        raise DecodeError(f"rate-2/3 stream length {coded.size} not divisible by 15")
    info = _tables()[1][coded.reshape(-1, 15) @ _W15]
    if (info == _UNCORRECTABLE).any():
        raise DecodeError("uncorrectable rate-2/3 FEC block")
    return ((info[:, None] & _W10) != 0).astype(np.uint8).ravel()
