"""Bluetooth basic-rate baseband packets: framing, whitening, FEC, GFSK.

Packet layout (basic rate, as monitored):

* 4-bit preamble, 64-bit sync word (derived from the channel-access LAP),
  4-bit trailer;
* 18-bit header (LT_ADDR 3, TYPE 4, FLOW/ARQN/SEQN 3, HEC 8), whitened and
  then rate-1/3 repetition coded to 54 bits;
* payload: 16-bit payload header (LLID 2, FLOW 1, LENGTH 10, reserved 3) +
  data + CRC-16, whitened with the same (continuing) whitening stream.

The monitor does not know the piconet clock, so the demodulator recovers
the whitening seed the way BlueSniff does — brute force over the 64
possible CLK[6:1] seeds until the HEC passes.

Substitution note: the real 64-bit sync word is a (64,30) BCH expansion of
the LAP; we derive it from a splitmix hash of the LAP instead.  What the
detection/decode pipeline relies on — a fixed, high-autocorrelation,
LAP-specific 64-bit pattern — is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import (
    BT_DH1_MAX_PAYLOAD,
    BT_DH3_MAX_PAYLOAD,
    BT_DH5_MAX_PAYLOAD,
    BT_SYMBOL_RATE,
    DEFAULT_SAMPLE_RATE,
)
from repro.errors import ChecksumError, DecodeError, SyncError
from repro.phy.fec import (
    hamming1510_decode,
    hamming1510_encode,
    repeat3_decode,
    repeat3_encode,
)
from repro.phy.gfsk import GfskModem
from repro.util.bits import (
    BluetoothWhitener,
    bits_to_bytes,
    bt_crc,
    bt_hec,
    bt_hec_table,
    bytes_to_bits,
    pack_uint,
    unpack_uint,
)

#: packet TYPE codes (ACL, basic rate)
TYPE_NULL = 0x0
TYPE_POLL = 0x1
TYPE_DH1 = 0x4
TYPE_DM1 = 0x3
TYPE_DM3 = 0xA
TYPE_DM5 = 0xE
TYPE_DH3 = 0xB
TYPE_DH5 = 0xF

_MAX_PAYLOAD = {TYPE_DH1: BT_DH1_MAX_PAYLOAD, TYPE_DH3: BT_DH3_MAX_PAYLOAD,
                TYPE_DH5: BT_DH5_MAX_PAYLOAD,
                TYPE_DM1: 17, TYPE_DM3: 121, TYPE_DM5: 224}
#: DM payloads are protected by the (15,10) shortened Hamming code
_FEC23_TYPES = frozenset({TYPE_DM1, TYPE_DM3, TYPE_DM5})
_SLOTS = {TYPE_NULL: 1, TYPE_POLL: 1, TYPE_DH1: 1, TYPE_DM1: 1,
          TYPE_DM3: 3, TYPE_DH3: 3, TYPE_DM5: 5, TYPE_DH5: 5}

PREAMBLE_BITS = np.array([1, 0, 1, 0], dtype=np.uint8)
TRAILER_BITS = np.array([0, 1, 0, 1], dtype=np.uint8)

#: row ``clock``: the whitening bits seed ``clock`` puts on the 18 header bits
_HEADER_WHITENING = np.stack(
    [BluetoothWhitener(clock).sequence(18) for clock in range(64)])
#: LSB-first bit weights of the header's 10 info bits / 8 HEC bits
_INFO_WEIGHTS = 1 << np.arange(10)
_HEC_WEIGHTS = 1 << np.arange(8)


def air_bits(ptype: int, payload_len: int) -> int:
    """Bits on the air for a packet of type ``ptype`` carrying
    ``payload_len`` payload bytes: access code, header and — for a
    payload-bearing type — payload header, data and CRC, the whole
    payload padded to 10 and coded at rate 2/3 for the DM types."""
    nbits = 72 + 54
    if ptype in _MAX_PAYLOAD:
        plain = 16 + 8 * payload_len + 16
        if ptype in _FEC23_TYPES:
            nbits += 15 * (-(-plain // 10))
        else:
            nbits += plain
    return nbits


def sync_word(lap: int) -> np.ndarray:
    """64-bit sync word for a 24-bit LAP (hash-expanded; see module note)."""
    x = lap & 0xFFFFFF
    bits = []
    for round_ in range(4):
        x = (x ^ (x >> 13)) & 0xFFFFFFFFFFFFFFFF
        x = (x * 0x9E3779B97F4A7C15 + round_) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 29
        bits.append(pack_uint(x & 0xFFFF, 16))
    return np.concatenate(bits)


@dataclass
class BluetoothPacket:
    """A decoded Bluetooth baseband packet."""

    lap: int
    lt_addr: int
    ptype: int
    flow: int
    arqn: int
    seqn: int
    payload: bytes
    clock: int  # whitening seed (CLK[6:1]) recovered during decode
    llid: int = 0
    start_sample: int = 0
    crc_ok: bool = True

    @property
    def slots(self) -> int:
        return _SLOTS.get(self.ptype, 1)

    @property
    def has_payload(self) -> bool:
        return self.ptype in _MAX_PAYLOAD


def header_info_bits(lt_addr: int, ptype: int, flow: int, arqn: int, seqn: int,
                     uap: int = 0) -> np.ndarray:
    """The 18 header bits: 10 info + 8 HEC."""
    info = np.concatenate([
        pack_uint(lt_addr & 0x7, 3),
        pack_uint(ptype & 0xF, 4),
        pack_uint(flow & 1, 1),
        pack_uint(arqn & 1, 1),
        pack_uint(seqn & 1, 1),
    ])
    hec = bt_hec(info, uap)
    return np.concatenate([info, pack_uint(hec, 8)])


def payload_bits(data: bytes, llid: int = 2, flow: int = 0, uap: int = 0) -> np.ndarray:
    """Payload header + data + CRC-16 as a plain (unwhitened) bit stream."""
    head = np.concatenate([
        pack_uint(llid & 0x3, 2),
        pack_uint(flow & 1, 1),
        pack_uint(len(data) & 0x3FF, 10),
        pack_uint(0, 3),
    ])
    body = np.concatenate([head, bytes_to_bits(data)])
    crc = bt_crc(body, uap)
    return np.concatenate([body, pack_uint(crc, 16)])


class BluetoothModulator:
    """Renders Bluetooth baseband packets to GFSK complex baseband."""

    def __init__(self, sample_rate: float = DEFAULT_SAMPLE_RATE, lap: int = 0x9E8B33,
                 uap: int = 0x00):
        self.modem = GfskModem(sample_rate)
        self.sample_rate = sample_rate
        self.lap = lap
        self.uap = uap
        self._sync = sync_word(lap)

    def packet_bits(self, ptype: int, data: bytes, clock: int,
                    lt_addr: int = 1, flow: int = 1, arqn: int = 0,
                    seqn: int = 0) -> np.ndarray:
        """Full on-air bit stream for one packet."""
        if ptype in _MAX_PAYLOAD and len(data) > _MAX_PAYLOAD[ptype]:
            raise ValueError(
                f"payload of {len(data)} bytes exceeds type {ptype:#x} limit "
                f"{_MAX_PAYLOAD[ptype]}"
            )
        whitener = BluetoothWhitener(clock)
        header = header_info_bits(lt_addr, ptype, flow, arqn, seqn, self.uap)
        header_tx = repeat3_encode(whitener.process(header))
        parts = [PREAMBLE_BITS, self._sync, TRAILER_BITS, header_tx]
        if ptype in _MAX_PAYLOAD:
            whitened = whitener.process(payload_bits(data, uap=self.uap))
            if ptype in _FEC23_TYPES:
                pad = (-whitened.size) % 10
                padded = np.concatenate(
                    [whitened, np.zeros(pad, dtype=np.uint8)]
                )
                parts.append(hamming1510_encode(padded))
            else:
                parts.append(whitened)
        return np.concatenate(parts)

    def modulate(self, ptype: int, data: bytes, clock: int, **header_fields) -> np.ndarray:
        """Complex64 waveform for one packet."""
        bits = self.packet_bits(ptype, data, clock, **header_fields)
        return self.modem.modulate(bits)

    def airtime(self, ptype: int, payload_len: int) -> float:
        """On-air duration in seconds of a packet."""
        return air_bits(ptype, payload_len) / BT_SYMBOL_RATE


class BluetoothDemodulator:
    """Bluetooth receive chain (the paper's BlueSniff stand-in)."""

    #: minimum sync-word correlation (out of 64) to accept a packet
    SYNC_THRESHOLD = 57

    def __init__(self, sample_rate: float = DEFAULT_SAMPLE_RATE, lap: int = 0x9E8B33,
                 uap: int = 0x00):
        self.modem = GfskModem(sample_rate)
        self.sample_rate = sample_rate
        self.lap = lap
        self.uap = uap
        self._sync = sync_word(lap)
        self._hec_of_info = bt_hec_table(uap)

    def demodulate(self, samples: np.ndarray,
                   channel_offset_hz: float = 0.0) -> BluetoothPacket:
        """Decode one candidate transmission; raises DecodeError variants.

        ``channel_offset_hz`` is where the transmission's channel sits
        relative to the centre of ``samples``."""
        return self.demodulate_discriminated(
            self.modem.discriminate_channels(samples, (channel_offset_hz,)))

    def demodulate_discriminated(self, disc: np.ndarray,
                                 correlation: Optional[np.ndarray] = None
                                 ) -> BluetoothPacket:
        """:meth:`demodulate` from the candidate's ``(1, n)``
        :meth:`GfskModem.discriminate_channels` row (and its
        :meth:`GfskModem.sync_correlation`, when the caller has it)."""
        modem = self.modem
        if correlation is None:
            correlation = modem.sync_correlation(disc, self._sync)[0]
        offset, pos, score = modem.best_match(correlation)
        self._require_sync(pos, score)
        return self._decode(modem.hard_bits(disc[0], offset), offset, pos)

    def demodulate_reference(self, samples: np.ndarray) -> BluetoothPacket:
        """:meth:`demodulate` on the modem's double-precision,
        alignment-at-a-time kernels (the oracle the scan is checked
        against)."""
        samples = np.asarray(samples, dtype=np.complex64)
        disc = self.modem.discriminate(samples)
        offset, pos, score = self.modem.best_offset(samples, self._sync, disc)
        self._require_sync(pos, score)
        return self._decode(self.modem.demodulate(samples, offset, disc), offset, pos)

    def _require_sync(self, pos: int, score: float) -> None:
        if pos < 0 or score < 2 * self.SYNC_THRESHOLD - 64:
            raise SyncError(f"no Bluetooth sync word (best score {score})")

    def _decode(self, bits: np.ndarray, offset: int, pos: int) -> BluetoothPacket:
        """Parse the bit stream of alignment ``offset`` whose sync word
        starts at bit ``pos``."""
        after_sync = pos + self._sync.size
        header_start = after_sync + TRAILER_BITS.size
        header_end = header_start + 54
        if header_end > bits.size:
            raise DecodeError("truncated Bluetooth header")
        header_whitened = repeat3_decode(bits[header_start:header_end])

        # Several of the 64 whitening seeds can pass the 8-bit HEC by
        # coincidence; the payload CRC arbitrates among them.
        last_error = None
        for header, clock in self._header_candidates(header_whitened):
            try:
                return self._decode_with_clock(
                    bits, header, clock, header_end, offset, pos
                )
            except DecodeError as exc:
                last_error = exc
        raise last_error or ChecksumError(
            "Bluetooth HEC failed for every whitening seed"
        )

    def _decode_with_clock(self, bits, header, clock, header_end, offset, pos):
        lt_addr = unpack_uint(header[0:3])
        ptype = unpack_uint(header[3:7])
        flow, arqn, seqn = int(header[7]), int(header[8]), int(header[9])

        payload = b""
        llid = 0
        if ptype in _MAX_PAYLOAD:
            whitener = BluetoothWhitener(clock)
            whitener.sequence(18)  # advance past header
            ph_start = header_end
            if ptype in _FEC23_TYPES:
                plain, llid, length = self._decode_fec23_payload(
                    bits, ph_start, clock, whitener
                )
            else:
                if ph_start + 16 > bits.size:
                    raise DecodeError("truncated Bluetooth payload header")
                ph = whitener.process(bits[ph_start : ph_start + 16])
                llid = unpack_uint(ph[0:2])
                length = unpack_uint(ph[3:13])
                rest = 8 * length + 16
                if ph_start + 16 + rest > bits.size:
                    raise DecodeError(
                        f"payload of {length} bytes does not fit in candidate"
                    )
                plain = np.concatenate(
                    [ph, whitener.process(bits[ph_start + 16 : ph_start + 16 + rest])]
                )
            body, crc_rx = plain[:-16], unpack_uint(plain[-16:])
            if bt_crc(body, self.uap) != crc_rx:
                raise ChecksumError("Bluetooth payload CRC mismatch")
            payload = bits_to_bytes(body[16 : 16 + 8 * length])

        start_sample = offset + (pos - PREAMBLE_BITS.size) * self.modem.sps
        return BluetoothPacket(
            lap=self.lap, lt_addr=lt_addr, ptype=ptype, flow=flow, arqn=arqn,
            seqn=seqn, payload=payload, clock=clock, llid=llid,
            start_sample=max(start_sample, 0), crc_ok=True,
        )

    def try_demodulate(self, samples: np.ndarray) -> Optional[BluetoothPacket]:
        """Like :meth:`demodulate` but returns None on any decode failure."""
        try:
            return self.demodulate(samples)
        except DecodeError:
            return None

    def _decode_fec23_payload(self, bits, ph_start, clock, whitener):
        """Decode a DM payload: de-FEC (2/3), de-whiten, parse.

        The payload length lives inside the FEC-protected stream, so the
        first two codewords are decoded to peek it before sizing the rest.
        Returns ``(plain_bits, llid, length)``.
        """
        if ph_start + 30 > bits.size:
            raise DecodeError("truncated DM payload header")
        peek_info = hamming1510_decode(bits[ph_start : ph_start + 30])
        peek = BluetoothWhitener(clock)
        peek.sequence(18)
        ph = peek.process(peek_info[:16])
        llid = unpack_uint(ph[0:2])
        length = unpack_uint(ph[3:13])
        plain_len = 16 + 8 * length + 16
        padded = -(-plain_len // 10) * 10
        coded_len = (padded // 10) * 15
        if ph_start + coded_len > bits.size:
            raise DecodeError(
                f"DM payload of {length} bytes does not fit in candidate"
            )
        info = hamming1510_decode(bits[ph_start : ph_start + coded_len])
        plain = whitener.process(info[:plain_len])
        return plain, llid, length

    def _header_candidates(self, whitened: np.ndarray):
        """Yield (header, clock) for every whitening seed whose HEC passes."""
        candidates = whitened ^ _HEADER_WHITENING
        hec = self._hec_of_info[candidates[:, :10] @ _INFO_WEIGHTS]
        for clock in np.flatnonzero(hec == candidates[:, 10:] @ _HEC_WEIGHTS):
            yield candidates[clock], int(clock)
