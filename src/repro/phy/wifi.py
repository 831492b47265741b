"""802.11b modulator and full receive chain.

:class:`WifiModulator` renders an MPDU into complex baseband at the capture
rate (PLCP long preamble + header at 1 Mbps DBPSK, payload at the SIGNAL
rate).  :class:`WifiDemodulator` is the expensive analysis-stage block:
timing acquisition against Barker templates, per-symbol correlation,
differential decisions, descrambling, SFD search, PLCP header CRC, payload
demodulation and MAC FCS verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.constants import DEFAULT_SAMPLE_RATE
from repro.errors import ChecksumError, DecodeError, SyncError
from repro.phy import cck, dsss, plcp
from repro.phy.barker import samples_per_symbol, symbol_template
from repro.phy.wifi_mac import MacFrame, parse_mac_frame
from repro.util.bits import bits_to_bytes, descramble_stream


@dataclass
class WifiPacket:
    """A decoded (or header-only decoded) 802.11b transmission."""

    plcp_header: plcp.PlcpHeader
    mpdu: bytes
    mac: Optional[MacFrame]
    start_sample: int  # offset of the first preamble symbol in the input
    header_only: bool = False
    preamble: str = "long"

    @property
    def rate_mbps(self) -> float:
        return self.plcp_header.rate_mbps

    @property
    def fcs_ok(self) -> bool:
        return self.mac is not None and self.mac.fcs_ok


class WifiModulator:
    """Renders 802.11b MPDUs to complex baseband."""

    def __init__(self, sample_rate: float = DEFAULT_SAMPLE_RATE):
        sps = samples_per_symbol(sample_rate)
        if not float(sps).is_integer():
            raise ValueError("sample_rate must be an integer multiple of 1 MSym/s")
        self.sample_rate = sample_rate
        self._sps = int(sps)

    def modulate(self, mpdu: bytes, rate_mbps: float = 1.0,
                 chip_phase: float = 0.0, preamble: str = "long") -> np.ndarray:
        """Complex64 waveform (unit amplitude) for one PLCP frame.

        ``preamble="short"`` uses the 96 us short PLCP (56-zero SYNC +
        reversed SFD at 1 Mbps, header at 2 Mbps DQPSK); payload rates
        are then limited to 2/5.5/11 Mbps.
        """
        if preamble == "short":
            return self._modulate_short(mpdu, rate_mbps, chip_phase)
        if preamble != "long":
            raise ValueError(f"preamble must be 'long' or 'short', not {preamble!r}")
        head_bits, payload_bits = plcp.build_frame_bits(mpdu, rate_mbps)
        head_symbols = dsss.dbpsk_symbols(head_bits)
        last_phase = float(np.angle(head_symbols[-1]))
        if rate_mbps == 1.0:
            payload_symbols = dsss.dbpsk_symbols(payload_bits, initial_phase=last_phase)
            symbols = np.concatenate([head_symbols, payload_symbols])
            return dsss.symbols_to_waveform(symbols, self.sample_rate, chip_phase)
        if rate_mbps == 2.0:
            payload_symbols = dsss.dqpsk_symbols(payload_bits, initial_phase=last_phase)
            symbols = np.concatenate([head_symbols, payload_symbols])
            return dsss.symbols_to_waveform(symbols, self.sample_rate, chip_phase)
        if rate_mbps in (5.5, 11.0):
            head_wave = dsss.symbols_to_waveform(head_symbols, self.sample_rate, chip_phase)
            payload_wave = cck.modulate_cck(
                payload_bits, rate_mbps, self.sample_rate, chip_phase,
                initial_phase=last_phase,
            )
            return np.concatenate([head_wave, payload_wave]).astype(np.complex64)
        raise ValueError(f"unsupported 802.11b rate {rate_mbps} Mbps")

    def _modulate_short(self, mpdu: bytes, rate_mbps: float,
                        chip_phase: float) -> np.ndarray:
        preamble_bits, header_bits, payload_bits = plcp.build_short_frame_bits(
            mpdu, rate_mbps
        )
        preamble_symbols = dsss.dbpsk_symbols(preamble_bits)
        header_symbols = dsss.dqpsk_symbols(
            header_bits, initial_phase=float(np.angle(preamble_symbols[-1]))
        )
        last_phase = float(np.angle(header_symbols[-1]))
        if rate_mbps == 2.0:
            payload_symbols = dsss.dqpsk_symbols(payload_bits, initial_phase=last_phase)
            symbols = np.concatenate(
                [preamble_symbols, header_symbols, payload_symbols]
            )
            return dsss.symbols_to_waveform(symbols, self.sample_rate, chip_phase)
        head_wave = dsss.symbols_to_waveform(
            np.concatenate([preamble_symbols, header_symbols]),
            self.sample_rate, chip_phase,
        )
        payload_wave = cck.modulate_cck(
            payload_bits, rate_mbps, self.sample_rate, chip_phase,
            initial_phase=last_phase,
        )
        return np.concatenate([head_wave, payload_wave]).astype(np.complex64)

    def frame_airtime(self, mpdu_bytes: int, rate_mbps: float = 1.0,
                      preamble: str = "long") -> float:
        """On-air duration in seconds: PLCP preamble+header plus payload."""
        plcp_us = 96 if preamble == "short" else 192
        payload_us = mpdu_bytes * 8 / rate_mbps
        return (plcp_us + payload_us) * 1e-6


class WifiDemodulator:
    """Full 802.11b receive chain (the paper's BBN-decoder stand-in).

    ``decode_payload=False`` gives the "headers only" analyzer variant the
    paper mentions (Section 2.1: demodulation of headers only).
    """

    #: chip-phase grid searched during timing acquisition
    _PHASES = np.arange(0.0, 11.0 / 8.0, 1.0 / 8.0)

    def __init__(
        self,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        decode_payload: bool = True,
        acq_symbols: int = 32,
        acq_window: int = 2048,
    ):
        sps = samples_per_symbol(sample_rate)
        if not float(sps).is_integer():
            raise ValueError("sample_rate must be an integer multiple of 1 MSym/s")
        self.sample_rate = sample_rate
        self.decode_payload = decode_payload
        self._sps = int(sps)
        self._acq_symbols = acq_symbols
        self._acq_window = acq_window
        grid = [
            symbol_template(sample_rate, phase).astype(np.complex64) for phase in self._PHASES
        ]
        # Neighbouring grid phases sample to the same template (6 distinct
        # of 11 at 8 Msps).  Every selection over the bank breaks ties
        # toward the earlier template, so a repeat can never be chosen
        # and only first occurrences are correlated.
        self._templates = list({t.tobytes(): t for t in grid}.values())
        #: one template per grid phase, repeats included (the reference twin's bank)
        self._grid_templates = grid
        # Every tap is a real +1 or -1, so a correlation is a signed sum
        # of shifted views: _tap_plus[t, j] says whether tap j of
        # template t adds, and _row_flips[t - 1] lists the taps where
        # template t differs from t - 1 (with the sign they take in t).
        self._tap_plus = np.array([t.real > 0 for t in self._templates])
        self._row_flips = [
            [(int(tap), bool(row[tap])) for tap in np.flatnonzero(row != prev)]
            for prev, row in zip(self._tap_plus, self._tap_plus[1:])
        ]
        # "USRP2 mode": chip-aligned capture rates can decode CCK payloads
        self._cck = {}
        if (sample_rate / 11e6).is_integer():
            self._cck = {
                rate: cck.CckDemodulator(sample_rate, rate) for rate in (5.5, 11.0)
            }

    @property
    def cck_capable(self) -> bool:
        """Whether this capture rate supports CCK payload decoding."""
        return bool(self._cck)

    # -- timing acquisition -------------------------------------------------
    #
    # demodulate() = acquire on a window's correlations, then decode from
    # one template's correlation at the acquired offset.  The stream
    # decoder calls the two halves itself so that neighbouring candidates
    # share correlations instead of recomputing them.

    def correlate(self, samples: np.ndarray, index: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        """``samples`` slid along template ``index``, one value per offset
        (none when there are fewer than ``sps`` samples).

        The taps are +-1, so this is the signed sum of the ``sps`` shifted
        views of ``samples``, added in tap order.  Each output depends
        only on the ``sps`` samples under it, so the correlation of a
        slice is bit-for-bit the slice of the correlation:
        ``correlate(x[lo:hi], i) == correlate(x, i)[lo:hi-sps+1]``.
        ``out``, when given, receives the result.
        """
        n = max(samples.size - self._sps + 1, 0)
        if out is None:
            out = np.empty(n, dtype=np.result_type(samples.dtype, np.complex64))
        plus = self._tap_plus[index]
        if plus[0]:
            np.copyto(out, samples[:n])
        else:
            np.negative(samples[:n], out=out)
        for tap in range(1, self._sps):
            accumulate = np.add if plus[tap] else np.subtract
            accumulate(out, samples[tap:tap + n], out=out)
        return out

    def correlate_bank(self, samples: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """``bank[t, o]``: ``samples`` correlated with every template.

        Row 0 is :meth:`correlate`; each later row is its predecessor
        with the taps that differ re-signed — ``+- 2 * samples`` at that
        tap — which at 8 Msps is one add per row.  Such a row matches
        its own :meth:`correlate` to rounding only (the sum is taken in
        another order), so it may rank templates and score timing but is
        never decoded from.  Like :meth:`correlate`, a slice's bank is
        bit-for-bit the slice of the bank.
        """
        n = max(samples.size - self._sps + 1, 0)
        if out is None:
            out = np.empty((len(self._templates), n),
                           dtype=np.result_type(samples.dtype, np.complex64))
        self.correlate(samples, 0, out=out[0])
        twice = samples + samples
        for row, flips in enumerate(self._row_flips, start=1):
            previous = out[row - 1]
            for tap, plus in flips:
                accumulate = np.add if plus else np.subtract
                accumulate(previous, twice[tap:tap + n], out=out[row])
                previous = out[row]
        return out

    def _acquisition_offsets(self, nsamples: int) -> int:
        """Sample offsets acquisition can score in the leading window of a
        candidate ``nsamples`` long (below 1: too short to acquire)."""
        return min(nsamples, self._acq_window) - self._acq_symbols * self._sps + 1

    def _acquisition_metrics(self, window: np.ndarray) -> np.ndarray:
        """``metric[t, o]``: sum of |correlation with template t| at
        ``o, o+sps, ...`` over ``acq_symbols`` symbols."""
        sps = self._sps
        mags = np.abs(self.correlate_bank(window))
        span = (self._acq_symbols - 1) * sps
        terms = sliding_window_view(mags, span + 1, axis=1)[:, :, ::sps]
        # summed along a contiguous last axis, so each row adds its
        # acq_symbols terms in np.sum's one fixed order whatever the
        # number of rows or templates beside it
        return np.ascontiguousarray(terms).sum(axis=2)

    def _pick_timing(self, metrics: np.ndarray) -> Optional[Tuple[int, int]]:
        """(template index, sample offset) maximizing preamble correlation,
        or None when nothing correlates."""
        best_score = -1.0
        for metric in metrics:  # one iteration per template
            best_score = max(best_score, float(metric.max()))
        if best_score <= 0:
            return None
        # Any symbol-aligned offset inside the 128-symbol SYNC scores near
        # the maximum; take the *earliest* near-max offset so the SFD is
        # still ahead of us, breaking ties toward the higher score.
        best = None
        for index, metric in enumerate(metrics):
            candidates = np.flatnonzero(metric >= 0.9 * best_score)
            if candidates.size == 0:
                continue
            o = int(candidates[0])
            score = float(metric[o])
            if best is None or o < best[1] or (o == best[1] and score > best[2]):
                best = (index, o, score)
        return best and best[:2]

    def acquire_each(self, samples: np.ndarray, bounds: Sequence[Tuple[int, int]]
                     ) -> List[Optional[Tuple[int, int]]]:
        """Timing acquisition on every candidate ``samples[lo:hi]``.

        ``bounds`` ascends in ``lo``.  Returns, per candidate, ``(template
        index, offset from lo)`` — or None where the candidate is too
        short or nothing in its window correlates.  Candidates whose
        windows start inside one another's (the same preamble seen at
        neighbouring symbol alignments) read slices of one metric array
        computed over the union of their windows; each metric row sums
        the same values in the same order either way.
        """
        timings: List[Optional[Tuple[int, int]]] = [None] * len(bounds)
        offsets = [self._acquisition_offsets(hi - lo) for lo, hi in bounds]
        start = 0
        while start < len(bounds):  # one iteration per group of candidates
            base = bounds[start][0]
            stop = start + 1
            while stop < len(bounds) and bounds[stop][0] < base + self._acq_window:  # one iteration per candidate
                stop += 1
            group = [i for i in range(start, stop) if offsets[i] >= 1]
            start = stop
            if not group:
                continue
            end = max(min(bounds[i][1], bounds[i][0] + self._acq_window) for i in group)
            metrics = self._acquisition_metrics(samples[base:end])
            for i in group:
                shift = bounds[i][0] - base
                timings[i] = self._pick_timing(metrics[:, shift:shift + offsets[i]])
        return timings

    # -- decode -------------------------------------------------------------

    def demodulate(self, samples: np.ndarray) -> WifiPacket:
        """Decode one candidate transmission; raises DecodeError variants."""
        samples = np.asarray(samples, dtype=np.complex64)
        timing = self.acquire_each(samples, [(0, samples.size)])[0]
        if timing is None:
            raise SyncError(f"timing acquisition failed ({samples.size} samples)")
        index, offset = timing
        return self.decode(samples, self.correlate(samples, index), offset)

    def decode(self, samples: np.ndarray, corr: np.ndarray, offset: int) -> WifiPacket:
        """Decode the transmission whose first symbol boundary is ``offset``.

        ``corr`` is ``samples`` correlated against the acquired template
        (or the matching slice of a longer correlation).
        """
        sps = self._sps
        symbols = corr[offset::sps]
        jumps = dsss.differential_decisions(symbols)
        scrambled = dsss.dbpsk_bits_from_jumps(jumps)
        descrambled = descramble_stream(scrambled)

        # Long preamble first, then short: the SYNC polarity (ones vs
        # zeros) makes the two searches mutually exclusive.
        preamble = "long"
        sfd_end = plcp.find_sfd(descrambled, search_limit=4096)
        if sfd_end >= 0:
            if sfd_end + 48 > descrambled.size:
                raise DecodeError("truncated PLCP header")
            header = plcp.parse_header(descrambled[sfd_end : sfd_end + 48])
            payload_start = sfd_end + 48  # bit == jump index
            state = scrambled[payload_start - 7 : payload_start]
        else:
            preamble = "short"
            sfd_end = plcp.find_short_sfd(descrambled, search_limit=4096)
            if sfd_end < 0:
                raise SyncError("no SFD found")
            if sfd_end + 24 > jumps.size:
                raise DecodeError("truncated short-preamble PLCP header")
            scrambled_hdr = dsss.dqpsk_bits_from_jumps(
                jumps[sfd_end : sfd_end + 24]
            )
            hdr_state = scrambled[sfd_end - 7 : sfd_end]
            header_bits = descramble_stream(
                np.concatenate([hdr_state, scrambled_hdr])
            )[7:]
            header = plcp.parse_header(header_bits)
            payload_start = sfd_end + 24  # jump index of first payload symbol
            state = scrambled_hdr[-7:]

        start_sample = offset  # first acquired symbol boundary
        decodable = (1.0, 2.0) + tuple(self._cck)
        if not self.decode_payload or header.rate_mbps not in decodable:
            return WifiPacket(header, b"", None, start_sample,
                              header_only=True, preamble=preamble)

        nbytes = header.mpdu_bytes
        if nbytes < 4:
            raise DecodeError(f"implausible MPDU length {nbytes}")
        if header.rate_mbps in self._cck and header.rate_mbps not in (1.0, 2.0):
            payload_bits = self._decode_cck_payload(
                samples, symbols, state, offset, payload_start,
                header.rate_mbps, nbytes,
            )
        elif header.rate_mbps == 1.0:
            if preamble == "short":
                raise DecodeError("1 Mbps payloads have no short-preamble mode")
            end = payload_start + 8 * nbytes
            if end > descrambled.size:
                raise DecodeError("payload truncated")
            payload_bits = descrambled[payload_start:end]
        else:
            njumps = 4 * nbytes
            if payload_start + njumps > jumps.size:
                raise DecodeError("payload truncated")
            payload_jumps = jumps[payload_start : payload_start + njumps]
            scrambled_payload = dsss.dqpsk_bits_from_jumps(payload_jumps)
            # Continue the descrambler across the rate change using the
            # last 7 *scrambled* bits before the payload as state.
            payload_bits = descramble_stream(np.concatenate([state, scrambled_payload]))[7:]

        mpdu = bits_to_bytes(payload_bits)
        try:
            mac = parse_mac_frame(mpdu)
        except (ChecksumError, DecodeError):
            # The PLCP header CRC already passed, so this *is* an 802.11
            # transmission; a bad FCS just means the payload was corrupted.
            mac = None
        return WifiPacket(header, mpdu, mac, start_sample, preamble=preamble)

    def _decode_cck_payload(self, samples, symbols, state, offset,
                            payload_start, rate_mbps, nbytes):
        """Decode a CCK payload ("USRP2 mode", chip-aligned capture rates).

        The differential phi1 reference is the *measured* phase of the
        header's final symbol, so constant channel rotation cancels;
        ``state`` is the last 7 scrambled bits before the payload, which
        continues the descrambler across the rate change.
        """
        decoder = self._cck[rate_mbps]
        if payload_start >= symbols.size:
            raise DecodeError("payload truncated")
        reference_phase = float(np.angle(symbols[payload_start]))
        payload_sample = offset + (payload_start + 1) * self._sps
        nbits = 8 * nbytes
        region = samples[payload_sample:]
        try:
            scrambled_payload = decoder.demodulate(region, nbits, reference_phase)
        except ValueError as exc:
            raise DecodeError(f"CCK payload truncated: {exc}") from exc
        return descramble_stream(np.concatenate([state, scrambled_payload]))[7:]

    # -- reference twin ------------------------------------------------------

    def _acquire_reference(self, samples: np.ndarray):
        """Find (template, sample offset) maximizing preamble correlation."""
        sps = self._sps
        window = samples[: min(self._acq_window, samples.size)]
        need = self._acq_symbols * sps
        if window.size < need:
            raise SyncError(f"candidate too short for acquisition ({samples.size} samples)")
        metrics = []
        best_score = -1.0
        for template in self._grid_templates:
            corr = np.convolve(window, template[::-1], mode="valid")
            mag = np.abs(corr)
            max_offset = mag.size - (self._acq_symbols - 1) * sps
            if max_offset <= 0:
                continue
            # metric[o] = sum of |corr| at o, o+sps, ..., over acq_symbols
            idx = np.arange(max_offset)[:, None] + sps * np.arange(self._acq_symbols)[None, :]
            metric = mag[idx].sum(axis=1)
            metrics.append((template, metric))
            best_score = max(best_score, float(metric.max()))
        if not metrics or best_score <= 0:
            raise SyncError("timing acquisition failed")
        best = (None, None, np.inf, -1.0)
        for template, metric in metrics:
            candidates = np.flatnonzero(metric >= 0.9 * best_score)
            if candidates.size == 0:
                continue
            o = int(candidates[0])
            score = float(metric[o])
            if o < best[2] or (o == best[2] and score > best[3]):
                best = (template, o, o, score)
        if best[0] is None:
            raise SyncError("timing acquisition failed")
        return best[0], best[1]

    def demodulate_reference(self, samples: np.ndarray) -> WifiPacket:
        """:meth:`demodulate` as first written — every grid-phase template
        correlated and gathered afresh per call — kept as the oracle the
        shared-correlation path is tested against."""
        samples = np.asarray(samples, dtype=np.complex64)
        template, offset = self._acquire_reference(samples)
        corr = np.convolve(samples, template[::-1], mode="valid")
        return self.decode(samples, corr, offset)

    def try_demodulate(self, samples: np.ndarray) -> Optional[WifiPacket]:
        """Like :meth:`demodulate` but returns None on any decode failure."""
        try:
            return self.demodulate(samples)
        except DecodeError:
            return None
