"""802.11b PLCP framing: long preamble, header, scrambling.

The PLCP (Physical Layer Convergence Procedure) wraps every 802.11b MPDU:

* 128 scrambled SYNC ones + 16-bit SFD, always at 1 Mbps DBPSK;
* 48-bit header — SIGNAL (rate), SERVICE, LENGTH (microseconds) and a
  CRC-16 — also at 1 Mbps DBPSK;
* the MPDU at the SIGNAL rate.

Everything after the SFD is scrambled with the self-synchronizing
z^-4 + z^-7 scrambler, continuing the state from the preamble.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    WIFI_PLCP_SFD,
    WIFI_PLCP_SYNC_BITS,
    WIFI_SIGNAL_1MBPS,
    WIFI_SIGNAL_2MBPS,
    WIFI_SIGNAL_5_5MBPS,
    WIFI_SIGNAL_11MBPS,
)
from repro.errors import ChecksumError, DecodeError
from repro.util.bits import Scrambler80211, crc16_ccitt, pack_uint, unpack_uint

#: SIGNAL field value -> payload rate in Mbps.
SIGNAL_TO_RATE = {
    WIFI_SIGNAL_1MBPS: 1.0,
    WIFI_SIGNAL_2MBPS: 2.0,
    WIFI_SIGNAL_5_5MBPS: 5.5,
    WIFI_SIGNAL_11MBPS: 11.0,
}
RATE_TO_SIGNAL = {v: k for k, v in SIGNAL_TO_RATE.items()}

#: SFD bit pattern, LSB-first, as transmitted.
SFD_BITS = pack_uint(WIFI_PLCP_SFD, 16)

#: Short-preamble SFD: the time reverse of the long SFD (0x05CF), after a
#: 56-bit SYNC of scrambled *zeros*.  Short-preamble headers are sent at
#: 2 Mbps DQPSK and payloads at 2/5.5/11 Mbps.
WIFI_PLCP_SHORT_SFD = 0x05CF
SHORT_SFD_BITS = pack_uint(WIFI_PLCP_SHORT_SFD, 16)
SHORT_SYNC_BITS = 56

#: scrambler seed for the short preamble (802.11b-1999, 0b0011011)
SHORT_PREAMBLE_SEED = 0b0011011


#: SERVICE field bit 7: length-extension, needed at CCK rates where the
#: microsecond LENGTH field cannot express the byte count exactly.
SERVICE_LENGTH_EXT = 0x80


@dataclass(frozen=True)
class PlcpHeader:
    """Decoded PLCP header fields."""

    rate_mbps: float
    service: int
    length_us: int

    @property
    def mpdu_bytes(self) -> int:
        """MPDU length in bytes implied by LENGTH (us), rate and the
        SERVICE length-extension bit."""
        nbytes = int(self.length_us * self.rate_mbps) // 8
        if self.service & SERVICE_LENGTH_EXT:
            nbytes -= 1
        return nbytes


def header_bits(rate_mbps: float, mpdu_bytes: int, service: int = 0) -> np.ndarray:
    """Build the 48 unscrambled header bits for an MPDU of ``mpdu_bytes``."""
    if rate_mbps not in RATE_TO_SIGNAL:
        raise ValueError(f"unsupported 802.11b rate {rate_mbps} Mbps")
    length_us = int(np.ceil(mpdu_bytes * 8 / rate_mbps))
    if int(length_us * rate_mbps) // 8 > mpdu_bytes:
        service |= SERVICE_LENGTH_EXT
    fields = np.concatenate(
        [
            pack_uint(RATE_TO_SIGNAL[rate_mbps], 8),
            pack_uint(service & 0xFF, 8),
            pack_uint(length_us, 16),
        ]
    )
    crc = crc16_ccitt(fields)
    return np.concatenate([fields, pack_uint(crc, 16)])


def parse_header(bits: np.ndarray) -> PlcpHeader:
    """Parse and CRC-check 48 descrambled header bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size != 48:
        raise DecodeError(f"PLCP header needs 48 bits, got {bits.size}")
    expected = crc16_ccitt(bits[:32])
    actual = unpack_uint(bits[32:48])
    if expected != actual:
        raise ChecksumError(
            f"PLCP header CRC mismatch: {actual:#06x} != {expected:#06x}",
            expected=expected,
            actual=actual,
        )
    signal = unpack_uint(bits[0:8])
    if signal not in SIGNAL_TO_RATE:
        raise DecodeError(f"unknown SIGNAL value {signal:#04x}")
    return PlcpHeader(
        rate_mbps=SIGNAL_TO_RATE[signal],
        service=unpack_uint(bits[8:16]),
        length_us=unpack_uint(bits[16:32]),
    )


def build_frame_bits(mpdu: bytes, rate_mbps: float, service: int = 0):
    """Assemble the full scrambled long-preamble PLCP bit stream.

    Returns ``(preamble_header_bits, payload_bits)`` where the first part
    (SYNC + SFD + header) is always transmitted at 1 Mbps DBPSK and the
    second at the SIGNAL rate.  Both are already scrambled.
    """
    from repro.util.bits import bytes_to_bits  # local import avoids cycle

    scrambler = Scrambler80211()
    sync = np.ones(WIFI_PLCP_SYNC_BITS, dtype=np.uint8)
    plain_head = np.concatenate([sync, SFD_BITS, header_bits(rate_mbps, len(mpdu), service)])
    scrambled_head = scrambler.scramble(plain_head)
    scrambled_payload = scrambler.scramble(bytes_to_bits(mpdu))
    return scrambled_head, scrambled_payload


def build_short_frame_bits(mpdu: bytes, rate_mbps: float, service: int = 0):
    """Assemble the scrambled short-preamble PLCP bit stream.

    Returns ``(preamble_bits, header_bits_scrambled, payload_bits)``: the
    56-zero SYNC + reversed SFD at 1 Mbps DBPSK, then the 48 header bits
    at 2 Mbps DQPSK, then the payload at the SIGNAL rate (which must be
    2, 5.5 or 11 Mbps — 1 Mbps has no short-preamble mode).
    """
    from repro.util.bits import bytes_to_bits

    if rate_mbps not in (2.0, 5.5, 11.0):
        raise ValueError(
            f"short preamble supports 2/5.5/11 Mbps, not {rate_mbps}"
        )
    scrambler = Scrambler80211(seed=SHORT_PREAMBLE_SEED)
    sync = np.zeros(SHORT_SYNC_BITS, dtype=np.uint8)
    preamble = scrambler.scramble(np.concatenate([sync, SHORT_SFD_BITS]))
    header = scrambler.scramble(header_bits(rate_mbps, len(mpdu), service))
    payload = scrambler.scramble(bytes_to_bits(mpdu))
    return preamble, header, payload


def _first_sfd(descrambled_bits: np.ndarray, search_limit: Optional[int],
               pattern: np.ndarray, sync_bit: int) -> int:
    """Index just past the first ``pattern`` occurrence whose (up to) 8
    preceding bits all equal ``sync_bit``, or -1."""
    bits = np.asarray(descrambled_bits, dtype=np.uint8)
    if search_limit is not None:
        bits = bits[:max(search_limit, 0)]
    # one byte per bit, so the exact match is a C substring search that
    # carries on from the previous occurrence: one pass over the stream
    stream, needle = bits.tobytes(), pattern.tobytes()
    start = stream.find(needle)
    while start >= 0:  # one iteration per pattern occurrence, not per bit
        lead = bits[max(start - 8, 0):start]
        if lead.all() if sync_bit else not lead.any():
            return start + pattern.size
        start = stream.find(needle, start + 1)
    return -1


def find_sfd(descrambled_bits: np.ndarray, search_limit: Optional[int] = None) -> int:
    """Index just past the SFD in a descrambled 1 Mbps bit stream, or -1.

    The descrambler self-synchronizes within 7 bits, after which the SYNC
    field decodes to a run of ones; we then match the 16 SFD bits exactly.
    """
    return _first_sfd(descrambled_bits, search_limit, SFD_BITS, 1)


def find_short_sfd(descrambled_bits: np.ndarray, search_limit: Optional[int] = None) -> int:
    """Index just past the short-preamble SFD, or -1.

    The short SYNC descrambles to zeros, so the reversed SFD is matched
    with a run of zeros required immediately before it.
    """
    return _first_sfd(descrambled_bits, search_limit, SHORT_SFD_BITS, 0)


def sfd_hits(descrambled_bits: np.ndarray, stride: int = 1
             ) -> List[Tuple[int, bool, int]]:
    """``(index of first bit, short?, lead)`` of every exact occurrence of
    either SFD in ``stride`` interleaved streams (bit ``m`` of stream
    ``a`` at ``a + m * stride``), ascending.

    ``lead`` counts the bits just before the occurrence in its own
    stream, 8 at most, that equal its SYNC bit.  The 16 bits from every
    index are packed LSB-first into one word array by four shift-or
    doublings, so both patterns are a compare against it.
    """
    bits = np.asarray(descrambled_bits, dtype=np.uint8)
    words = bits.astype(np.uint16)
    for width in (1, 2, 4, 8):
        words = words[:-width * stride] | (words[width * stride:] << width)
    hits = []
    for start in np.flatnonzero((words == WIFI_PLCP_SFD)
                                | (words == WIFI_PLCP_SHORT_SFD)).tolist():  # one iteration per occurrence
        short = bool(words[start] == WIFI_PLCP_SHORT_SFD)
        before = bits[start % stride + max(start // stride - 8, 0) * stride:start:stride]
        wrong = np.flatnonzero(before != (0 if short else 1))
        hits.append((start, short,
                     before.size - 1 - int(wrong[-1]) if wrong.size else before.size))
    return hits


def accepted_sfd_ends(hits: Iterable[Tuple[int, bool, int]], short: bool,
                      stride: int = 1) -> List[int]:
    """Indices just past each SFD of one kind a restarting search accepts,
    from :func:`sfd_hits` output (of a whole stream, or its tiles joined).

    An occurrence is accepted when the (up to) 8 bits before it all equal
    the SYNC bit — which rejects payload bytes that happen to contain the
    pattern — and the search resumes one bit past an accepted SFD as if
    the stream began there: earlier occurrences are skipped and the lead
    is cut at the resume position, so an occurrence sitting exactly on it
    is accepted on an empty lead.
    """
    resume = [0] * stride  # per stream, in bits
    ends: List[int] = []
    for start, is_short, lead in hits:  # one iteration per pattern occurrence
        stream, bit = start % stride, start // stride
        if is_short == short and bit >= resume[stream] \
                and lead >= min(8, bit - resume[stream]):
            ends.append(start + 16 * stride)
            resume[stream] = bit + 17
    return ends


def find_all_sfds(descrambled_bits: np.ndarray, short: bool = False,
                  stride: int = 1) -> List[int]:
    """Every SFD end a restarting :func:`find_sfd` search (:func:`find_short_sfd`
    when ``short``) would report in each of ``stride`` interleaved streams
    — end ``e`` is bit ``e // stride`` of stream ``e % stride`` — with all
    of them matched in one pass."""
    return accepted_sfd_ends(sfd_hits(descrambled_bits, stride), short, stride)
