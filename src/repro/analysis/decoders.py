"""Demodulating stream decoders for the analysis stage.

Each decoder's :meth:`scan` takes a :class:`~repro.dsp.samples.SampleBuffer`
(the whole trace for the naive architectures, or one dispatched range for
RFDump) and returns every packet it can decode inside it, as
:class:`PacketRecord` objects with absolute sample positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_CENTER_FREQ
from repro.dsp.samples import SampleBuffer
from repro.emulator.channel import apply_freq_offset
from repro.errors import DecodeError
from repro.phy import plcp
from repro.phy.bluetooth import (
    BluetoothDemodulator,
    PREAMBLE_BITS,
    air_bits,
    sync_word,
)
from repro.phy.bluetooth_fh import channel_freq, channels_in_band
from repro.phy.wifi import WifiDemodulator
from repro.phy.zigbee import ZigbeeDemodulator
from repro.util.bits import descramble_stream
from repro.phy import dsss


@dataclass
class PacketRecord:
    """One decoded packet, protocol-agnostic envelope."""

    protocol: str
    start_sample: int
    end_sample: int
    ok: bool
    decoder: str
    payload_size: int = 0
    rate_mbps: Optional[float] = None
    channel: Optional[int] = None
    decoded: object = None
    info: Dict = field(default_factory=dict)

    def start_time(self, sample_rate: float) -> float:
        return self.start_sample / sample_rate


def _dedup_records(records: List[PacketRecord], min_spacing: int) -> List[PacketRecord]:
    """Collapse records whose starts are within ``min_spacing`` samples."""
    records.sort(key=lambda r: r.start_sample)
    out: List[PacketRecord] = []
    for rec in records:
        if out and rec.start_sample - out[-1].start_sample < min_spacing:
            if rec.ok and not out[-1].ok:
                out[-1] = rec
            continue
        out.append(rec)
    return out


#: An SFD search covers _SEARCH_CHUNK differential bits from the range
#: start or past a decoded packet, doubling up to _SFD_TILE (so a
#: whole-trace scan holds tile-sized temporaries) for each search that
#: decodes nothing: a search's fixed cost is that of thousands of bits,
#: yet the first should stop soon after a long preamble's SFD, which
#: ends 1,152 samples in at 8 Msps.
_SEARCH_CHUNK = 2048
_SFD_TILE = 1 << 15

#: A stronger frame arriving inside a decoded one captures the receiver.
#: Its power, one sample per symbol summed over _CAPTURE_BLOCK symbols,
#: rises against the packet's PLCP level: an arrival as strong doubles it
#: (noise aside), a weaker one is not decoded under it; 1.5x sits between.
_CAPTURE_BLOCK = 32
_CAPTURE_LEVEL = 1.5

#: the longest 802.11b frame — a 192 us PLCP and a 2,346-byte MPDU at
#: 1 Mbps: 192 + 8 * 2346 = 18,960 us — and a symbol of slack, since a
#: start read from an SFD can fall a symbol early
_MAX_PACKET_US = 192.0 + 8 * 2346 + 8
#: a candidate is decoded from this much of its slice first: it holds all
#: but the longest frames, and a whole-trace scan reads a quarter as much
_FIRST_SLICE_US = 5000.0


class WifiStreamDecoder:
    """Finds and decodes every 802.11b packet in a sample range.

    Decode forward.  The Barker chip-phase templates are ranked by
    correlation energy from the range's lag sums
    (``WifiDemodulator.strongest_template``) and only the strongest is
    correlated.  One lag-``sps`` product of that correlation gives the
    differential bits of all 8 symbol alignments, which are descrambled
    and searched for SFDs together, a chunk at a time from a resume
    position — about three candidate starts per packet, one per
    neighbouring alignment.  A chunk's candidates are acquired together
    and visited in order of their acquired start sample, and one is
    decoded (from a slice of the kept correlation when acquisition chose
    that template) only when it starts a new packet rather than
    repeating the last decoded one.  The search then resumes at that
    packet's end, or earlier where a stronger arrival captures it.

    ``impl="reference"`` keeps the earlier flow — every SFD searched, a
    full ``WifiDemodulator.demodulate`` on every candidate, duplicates
    collapsed afterwards — for the equivalence tests and ``rfbench
    --impl reference``.  The two return equal records unless a packet
    starts inside a decoded one without capturing it.
    """

    #: samples of slack kept before a candidate's nominal preamble start
    _LEAD = 64

    #: (short preamble?, bits from preamble start to SFD end): long is
    #: SYNC(128) + SFD(16), short is SYNC(56) + SFD(16)
    _PREAMBLES = ((False, 144), (True, 72))

    def __init__(self, sample_rate: float, decode_payload: bool = True,
                 max_packet_us: float = _MAX_PACKET_US, impl: str = "vectorized"):
        if impl not in ("vectorized", "reference"):
            raise ValueError(f"impl must be 'vectorized' or 'reference', not {impl!r}")
        self.sample_rate = sample_rate
        self.impl = impl
        self.demodulator = WifiDemodulator(sample_rate, decode_payload=decode_payload)
        self._sps = self.demodulator._sps
        self._max_packet = int(max_packet_us * 1e-6 * sample_rate)
        #: two records closer than this are the same packet's preamble
        #: found at neighbouring alignments
        self._min_spacing = 96 * self._sps

    def _candidate_starts(self, corr: np.ndarray, lo: int = 0,
                          hi: Optional[int] = None) -> List[int]:
        """Sample indices where a PLCP preamble plausibly starts, ascending,
        from the SFDs whose first differential bit is in ``[lo, hi)``.

        ``corr`` is the range's correlation against its strongest
        template.  All ``sps`` symbol alignments are searched together:
        differential bit ``i`` is bit ``i // sps`` of alignment ``i % sps``.
        """
        sps = self._sps
        # the bits start 7 before they descramble right and 8 more (an
        # SFD's lead) before the first SFD they may report
        margin = 15 * sps
        stop = corr.size - sps - margin
        hi = stop if hi is None else min(hi, stop)
        first = max(lo - margin, 0)
        bits = dsss.dbpsk_bits_at_lag(corr[first:max(hi + margin + sps, first)], sps)
        hits = [(first + start, short, lead)
                for start, short, lead in plcp.sfd_hits(descramble_stream(bits, sps), sps)
                if first + start >= lo]
        return sorted(
            end % sps + max(end // sps - preamble_bits, 0) * sps
            for short, preamble_bits in self._PREAMBLES
            for end in plcp.accepted_sfd_ends(hits, short, sps)
        )

    def _record(self, buffer: SampleBuffer, lo: int, packet) -> PacketRecord:
        abs_start = buffer.start_sample + lo + packet.start_sample
        plcp_us = 96 if packet.preamble == "short" else 192
        airtime_us = plcp_us + packet.plcp_header.length_us
        return PacketRecord(
            protocol="wifi",
            start_sample=abs_start,
            end_sample=abs_start + int(airtime_us * 1e-6 * self.sample_rate),
            ok=True,
            decoder=type(self).__name__,
            payload_size=len(packet.mpdu) or packet.plcp_header.mpdu_bytes,
            rate_mbps=packet.rate_mbps,
            decoded=packet,
            info={"header_only": packet.header_only,
                  "fcs_ok": packet.fcs_ok,
                  "preamble": packet.preamble},
        )

    def scan(self, buffer: SampleBuffer,
             channel_hint: Optional[int] = None) -> List[PacketRecord]:
        """Decode every 802.11b packet found in the buffer.

        ``channel_hint`` is part of the shared ``scan`` signature
        (:func:`make_decoder`) and ignored here."""
        samples = buffer.samples
        if samples.size == 0:
            return []
        if self.impl == "reference":
            return self._scan_reference(buffer)
        demod = self.demodulator
        sps = self._sps
        # two full-length arrays at most (whole-trace callers pass
        # millions of samples): the range and one correlation
        strongest = demod.strongest_template(samples)
        strongest_corr = demod.correlate(samples, strongest)
        records: List[PacketRecord] = []
        last_start = None
        pos, chunk = 0, _SEARCH_CHUNK
        # the last SFD a search can report starts 16 symbols before the end
        while pos < strongest_corr.size - 16 * sps:  # one iteration per search
            bounds = [
                (max(start - self._LEAD, 0), min(start + self._max_packet, samples.size))
                for start in self._candidate_starts(strongest_corr, pos, pos + chunk)
            ]
            pos, chunk = pos + chunk, min(2 * chunk, _SFD_TILE)
            timings = demod.acquire_each(samples, bounds)
            # A record starts at lo + acquired offset, so acquisition alone
            # fixes the order _dedup_records would sort decoded candidates
            # into (start sample, then candidate order) and which of them it
            # would drop: those within _min_spacing of the last kept record.
            # Visiting in that order lets the dropped ones skip the decode,
            # and the first that decodes moves the search past its packet.
            visit = sorted(
                (bounds[i][0] + timing[1], i)
                for i, timing in enumerate(timings) if timing is not None
            )
            for start, i in visit:
                if last_start is not None and start - last_start < self._min_spacing:
                    continue
                lo, hi = bounds[i]
                try:
                    packet = self._decode(samples, lo, hi, timings[i], strongest, strongest_corr)
                except DecodeError:
                    continue
                records.append(self._record(buffer, lo, packet))
                last_start = start
                pos, chunk = self._resume(samples, start, records[-1]), _SEARCH_CHUNK
                break
        return records

    def _decode(self, samples: np.ndarray, lo: int, hi: int, timing: Tuple[int, int],
                strongest: int, strongest_corr: np.ndarray):
        """The candidate ``samples[lo:hi]`` decoded at its acquired ``(template,
        offset)``: from its first ``_FIRST_SLICE_US``, and from the whole
        slice if the frame's header passed but its payload ran out there."""
        index, offset = timing
        cut = min(hi, lo + int(_FIRST_SLICE_US * 1e-6 * self.sample_rate))
        while True:  # at most twice
            corr = (strongest_corr[lo:cut - self._sps + 1] if index == strongest
                    else self.demodulator.correlate(samples[lo:cut], index))
            try:
                return self.demodulator.decode(samples[lo:cut], corr, offset)
            except DecodeError as exc:
                if cut == hi or type(exc) is not DecodeError:  # no SFD, or a bad CRC
                    raise
                cut = hi

    def _resume(self, samples: np.ndarray, start: int, record: PacketRecord) -> int:
        """Where the SFD search goes on after ``record`` decoded from
        ``start``: the packet's end, or the first block inside it where a
        stronger arrival raises the power to ``_CAPTURE_LEVEL`` x its PLCP's."""
        sps = self._sps
        end = start + record.end_sample - record.start_sample
        head = 96 if record.info["preamble"] == "short" else 192  # PLCP symbols
        x = samples[start:end:sps]
        power = x.real * x.real + x.imag * x.imag
        body = power[head:head + (power.size - head) // _CAPTURE_BLOCK * _CAPTURE_BLOCK]
        rise = np.flatnonzero(body.reshape(-1, _CAPTURE_BLOCK).sum(axis=1)
                              >= _CAPTURE_LEVEL * _CAPTURE_BLOCK / head * power[:head].sum())
        return start + (head + _CAPTURE_BLOCK * int(rise[0])) * sps if rise.size else end

    # -- reference twin: the pre-restructuring flow, kept for equivalence ---

    def _candidate_starts_reference(self, samples: np.ndarray) -> List[int]:
        sps = self._sps
        best_corr, best_energy = None, -1.0
        for template in self.demodulator._grid_templates:
            corr = np.convolve(samples, template[::-1], mode="valid")
            energy = float(np.sum(np.abs(corr) ** 2))
            if energy > best_energy:
                best_corr, best_energy = corr, energy
        candidates: List[int] = []
        searches = ((plcp.find_sfd, 144), (plcp.find_short_sfd, 72))
        for align in range(sps):
            symbols = best_corr[align::sps]
            jumps = dsss.differential_decisions(symbols)
            if jumps.size == 0:
                continue
            bits = dsss.dbpsk_bits_from_jumps(jumps)
            descrambled = descramble_stream(bits)
            for finder, preamble_bits in searches:
                pos = 0
                while pos < descrambled.size:
                    sfd_end = finder(descrambled[pos:], search_limit=None)
                    if sfd_end < 0:
                        break
                    sfd_end += pos
                    start = align + max(sfd_end - preamble_bits, 0) * sps
                    candidates.append(start)
                    pos = sfd_end + 1
        return sorted(candidates)

    def _scan_reference(self, buffer: SampleBuffer) -> List[PacketRecord]:
        samples = buffer.samples
        records: List[PacketRecord] = []
        for start in self._candidate_starts_reference(samples):
            lo = max(start - self._LEAD, 0)
            hi = min(start + self._max_packet, samples.size)
            try:
                packet = self.demodulator.demodulate_reference(samples[lo:hi])
            except DecodeError:
                continue
            records.append(self._record(buffer, lo, packet))
        # a packet preamble found at neighbouring alignments is one packet
        return _dedup_records(records, min_spacing=self._min_spacing)


class BluetoothStreamDecoder:
    """Finds and decodes Bluetooth packets on every in-band hop channel.

    The paper's "8 Bluetooth demodulators (one for each channel)",
    computed together: one pass over the range yields every channel's
    discriminator output (``GfskModem.discriminate_channels``), one more
    correlates the bit decisions of every symbol alignment of every
    channel with the sync word (``GfskModem.sync_correlation``), and
    each match of ``SYNC_THRESHOLD`` bits or more that does not repeat a
    decoded packet is demodulated from its own slice of the range — the
    slice's discriminator rows derived from the range's, bit for bit what
    discriminating the slice again would give
    (``GfskModem.discriminate_slice``), or for a whole-range slice its
    sync match too.  A channel hint (from the phase or frequency
    detector) restricts the scan to a single channel.

    ``impl="reference"`` keeps the earlier flow — per channel an
    ``np.exp`` mixer and a double-precision filter, per alignment a
    reduction and an ``np.correlate`` — for the equivalence tests and
    ``rfbench --impl reference``; the two return equal records.
    """

    _LEAD = 96

    def __init__(self, sample_rate: float, center_freq: float = DEFAULT_CENTER_FREQ,
                 lap: int = 0x9E8B33, max_packet_us: float = 3200.0,
                 impl: str = "vectorized"):
        if impl not in ("vectorized", "reference"):
            raise ValueError(f"impl must be 'vectorized' or 'reference', not {impl!r}")
        self.sample_rate = sample_rate
        self.center_freq = center_freq
        self.lap = lap
        self.impl = impl
        self.demodulator = BluetoothDemodulator(sample_rate, lap=lap)
        self.channels = [int(c) for c in channels_in_band(center_freq, sample_rate)]
        self._sync = sync_word(lap)
        self._max_packet = int(max_packet_us * 1e-6 * sample_rate)
        #: a sync match this close to a decoded packet's is the same packet
        self._guard = 64 * self.demodulator.modem.sps

    def _channel_offset(self, channel: int) -> float:
        return channel_freq(channel) - self.center_freq

    def _record(self, buffer: SampleBuffer, lo: int, channel: int,
                packet) -> PacketRecord:
        abs_start = buffer.start_sample + lo + packet.start_sample
        nbits = air_bits(packet.ptype, len(packet.payload))
        return PacketRecord(
            protocol="bluetooth",
            start_sample=abs_start,
            end_sample=abs_start + nbits * self.demodulator.modem.sps,
            ok=True,
            decoder=type(self).__name__,
            payload_size=len(packet.payload),
            rate_mbps=1.0,
            channel=channel,
            decoded=packet,
            info={"ptype": packet.ptype, "clock": packet.clock},
        )

    def _scan_channels(self, buffer: SampleBuffer,
                       channels: List[int]) -> List[PacketRecord]:
        demod = self.demodulator
        modem = demod.modem
        sps = modem.sps
        samples = buffer.samples
        offsets_hz = [self._channel_offset(c) for c in channels]
        # one discriminator pass: each hit's slice is derived from it
        freq = modem.frequency_rows(samples, offsets_hz)
        correlation = modem.centred_sync_correlation(freq, self._sync)
        rows, sync_starts = np.divmod(
            np.flatnonzero(correlation.ravel() >= 2 * demod.SYNC_THRESHOLD - 64),
            max(correlation.shape[1], 1))
        # tried channel by channel, a symbol alignment at a time, in
        # order of position: which matches the guard drops depends on it
        order = np.lexsort((sync_starts, sync_starts % sps, rows))
        records: List[PacketRecord] = []
        decoded_starts: List[Tuple[int, int]] = []
        for row, sync_start in zip(rows[order].tolist(), sync_starts[order].tolist()):
            start = sync_start - PREAMBLE_BITS.size * sps
            if any(row == r and abs(start - s) < self._guard
                   for r, s in decoded_starts):
                continue
            lo = max(start - self._LEAD, 0)
            hi = min(start + self._max_packet, samples.size)
            disc = modem.discriminate_slice(samples, freq[row : row + 1],
                                            offsets_hz[row : row + 1], lo, hi)
            whole = lo == 0 and hi == samples.size  # searched as the range
            try:
                packet = demod.demodulate_discriminated(
                    disc, correlation[row] if whole else None)
            except DecodeError:
                continue
            decoded_starts.append((row, start))
            records.append(self._record(buffer, lo, channels[row], packet))
        return records

    # -- reference twin: the earlier flow, kept for equivalence -------------

    def _scan_channel_reference(self, buffer: SampleBuffer,
                                channel: int) -> List[PacketRecord]:
        baseband = apply_freq_offset(
            buffer.samples, -self._channel_offset(channel), self.sample_rate
        )
        modem = self.demodulator.modem
        pattern = 2.0 * self._sync.astype(np.float64) - 1.0
        records: List[PacketRecord] = []
        decoded_starts: List[int] = []
        threshold = 2 * self.demodulator.SYNC_THRESHOLD - 64
        disc = modem.discriminate(baseband)
        for offset in range(modem.sps):
            soft = modem.soft_bits(baseband, offset, disc)
            if soft.size < pattern.size:
                continue
            corr = np.correlate(np.sign(soft), pattern, mode="valid")
            for pos in np.flatnonzero(corr >= threshold):
                start = offset + (int(pos) - PREAMBLE_BITS.size) * modem.sps
                if any(abs(start - s) < self._guard for s in decoded_starts):
                    continue
                lo = max(start - self._LEAD, 0)
                hi = min(start + self._max_packet, baseband.size)
                try:
                    packet = self.demodulator.demodulate_reference(baseband[lo:hi])
                except DecodeError:
                    continue
                decoded_starts.append(start)
                records.append(self._record(buffer, lo, channel, packet))
        return records

    def scan(self, buffer: SampleBuffer, channel_hint: Optional[int] = None) -> List[PacketRecord]:
        """Decode Bluetooth packets; restrict to one channel when hinted."""
        if channel_hint is not None and channel_hint in self.channels:
            channels = [channel_hint]
        else:
            channels = self.channels
        if self.impl == "reference":
            records = [record for channel in channels
                       for record in self._scan_channel_reference(buffer, channel)]
        else:
            records = self._scan_channels(buffer, channels)
        return _dedup_records(records, min_spacing=self._guard)


class OfdmStreamDecoder:
    """Finds and decodes OFDM frames in a sample range (future-work PHY)."""

    _LEAD = 32

    def __init__(self, sample_rate: float, max_packet_us: float = 4000.0):
        from repro.phy.ofdm import OfdmModem, SYMBOL_LEN, _TRAINING

        self.sample_rate = sample_rate
        self.demodulator = OfdmModem(sample_rate)
        self._symbol_len = SYMBOL_LEN
        self._reference = self.demodulator._symbol_from_subcarriers(_TRAINING)
        self._max_packet = int(max_packet_us * 1e-6 * sample_rate)

    def scan(self, buffer: SampleBuffer,
             channel_hint: Optional[int] = None) -> List[PacketRecord]:
        samples = buffer.samples
        corr = np.abs(
            np.convolve(samples, self._reference[::-1].conj(), mode="valid")
        )
        if corr.size == 0:
            return []
        # the training symbol stands far above both noise and data-symbol
        # cross-correlation; hits are clustered per preamble
        threshold = max(0.6 * float(corr.max()), 8.0 * float(np.median(corr)))
        hits = np.flatnonzero(corr > threshold)
        records: List[PacketRecord] = []
        skip_until = -1
        for hit in hits:
            if hit < skip_until:
                continue
            lo = max(int(hit) - self._LEAD, 0)
            hi = min(int(hit) + self._max_packet, samples.size)
            try:
                packet = self.demodulator.demodulate(samples[lo:hi])
            except DecodeError:
                skip_until = int(hit) + 2 * self._symbol_len
                continue
            skip_until = (
                lo + packet.start_sample + packet.n_symbols * self._symbol_len
            )
            abs_start = buffer.start_sample + lo + packet.start_sample
            records.append(
                PacketRecord(
                    protocol="ofdm",
                    start_sample=abs_start,
                    end_sample=abs_start + packet.n_symbols * self._symbol_len,
                    ok=True,
                    decoder=type(self).__name__,
                    payload_size=len(packet.payload),
                    decoded=packet,
                )
            )
        return _dedup_records(records, min_spacing=4 * self._symbol_len)


class ZigbeeStreamDecoder:
    """Finds and decodes 802.15.4 frames in a sample range."""

    _LEAD = 64

    def __init__(self, sample_rate: float, max_packet_us: float = 4500.0):
        self.sample_rate = sample_rate
        self.demodulator = ZigbeeDemodulator(sample_rate)
        self._max_packet = int(max_packet_us * 1e-6 * sample_rate)

    def scan(self, buffer: SampleBuffer,
             channel_hint: Optional[int] = None) -> List[PacketRecord]:
        samples = buffer.samples
        sps = self.demodulator.sps
        template = self.demodulator._templates[0]
        corr = np.abs(np.convolve(samples, template[::-1].conj(), mode="valid"))
        if corr.size == 0:
            return []
        # preamble symbols stand well above the correlation noise floor
        threshold = max(4.0 * float(np.median(corr)), 1e-12)
        hits = np.flatnonzero(corr > threshold)
        records: List[PacketRecord] = []
        last = -10 * sps
        for hit in hits:
            if hit - last < 12 * sps:  # inside the previous frame's preamble
                continue
            lo = max(int(hit) - self._LEAD, 0)
            hi = min(int(hit) + self._max_packet, samples.size)
            try:
                packet = self.demodulator.demodulate(samples[lo:hi])
            except DecodeError:
                continue
            last = int(hit)
            abs_start = buffer.start_sample + lo + packet.start_sample
            nsymbols = (6 + len(packet.psdu) + 2) * 2
            records.append(
                PacketRecord(
                    protocol="zigbee",
                    start_sample=abs_start,
                    end_sample=abs_start + nsymbols * sps,
                    ok=True,
                    decoder=type(self).__name__,
                    payload_size=len(packet.psdu),
                    decoded=packet,
                )
            )
        return _dedup_records(records, min_spacing=12 * sps)


def make_decoder(protocol: str, sample_rate: float,
                 center_freq: float = DEFAULT_CENTER_FREQ,
                 decode_payload: bool = True):
    """The stream decoder every monitor uses for ``protocol``.

    All decoders share one call shape — ``scan(buffer, channel_hint=None)``
    — so callers never branch on the protocol; only the Bluetooth
    decoder acts on the hint.  Returns None for ``"microwave"``: there
    is nothing to demodulate, the classification is the output.
    """
    if protocol == "wifi":
        return WifiStreamDecoder(sample_rate, decode_payload=decode_payload)
    if protocol == "bluetooth":
        return BluetoothStreamDecoder(sample_rate, center_freq)
    if protocol == "zigbee":
        return ZigbeeStreamDecoder(sample_rate)
    if protocol == "ofdm":
        return OfdmStreamDecoder(sample_rate)
    if protocol == "microwave":
        return None
    raise ValueError(f"no analyzer for protocol {protocol!r}")
