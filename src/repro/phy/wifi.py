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


#: samples per lag sum when templates are ranked: single-precision
#: partial sums stay short, their total is kept in double
_RANK_TILE = 1 << 16


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
    #: symbols summed per acquisition score (``_acquisition_metrics``
    #: spells out np.sum's order for exactly this many)
    _ACQ_SYMBOLS = 32
    #: samples at the head of a candidate searched for its timing
    _ACQ_WINDOW = 2048

    def __init__(self, sample_rate: float = DEFAULT_SAMPLE_RATE,
                 decode_payload: bool = True):
        sps = samples_per_symbol(sample_rate)
        if not float(sps).is_integer():
            raise ValueError("sample_rate must be an integer multiple of 1 MSym/s")
        self.sample_rate = sample_rate
        self.decode_payload = decode_payload
        self._sps = int(sps)
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
        self._tap_signs = np.where(self._tap_plus, 1.0, -1.0)
        #: ``[t, d]``: sum of tap products ``d`` apart, both orders counted
        self._tap_autocorrelation = np.array([
            [(2 if lag else 1) * np.dot(taps[lag:], taps[:self._sps - lag])
             for lag in range(self._sps)]
            for taps in self._tap_signs
        ])
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

    def correlate_bank(self, samples: np.ndarray) -> np.ndarray:
        """``bank[t, o]``: ``samples`` correlated with every template.

        Row 0 is :meth:`correlate`; each later row is its predecessor
        with the taps that differ re-signed — ``+- 2 * samples`` at that
        tap — which at 8 Msps is one add per row.  Such a row matches
        its own :meth:`correlate` to rounding only (the sum is taken in
        another order), so it may score timing but is never decoded
        from.  Like :meth:`correlate`, a slice's bank is bit-for-bit the
        slice of the bank.
        """
        n = max(samples.size - self._sps + 1, 0)
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

    def strongest_template(self, samples: np.ndarray) -> int:
        """Index of the template with the greatest total correlation
        energy over ``samples`` (a tie goes to the earlier template).

        Over every overlap of template and range, partial ones included,
        the energy ``sum_o |sum_j s[j] x[o+j]|^2`` is the template's tap
        autocorrelation dotted with the range's lag sums ``sum_i x[i]
        conj(x[i+d])``; the ``sps - 1`` partial overlaps at either end
        are then taken off.  One ``np.vdot`` per lag ranks every
        template and nothing is correlated; the energies match a
        correlation's to rounding only, so they rank and are never
        decoded from.
        """
        sps = self._sps
        offsets = samples.size - sps + 1
        if offsets < 1:
            return 0
        lag_sums = np.zeros(sps)
        for lag in range(sps):
            for lo in range(0, samples.size - lag, _RANK_TILE):
                hi = min(lo + _RANK_TILE, samples.size - lag)
                lag_sums[lag] += np.vdot(samples[lo + lag:hi + lag], samples[lo:hi]).real
        # every window hanging off the end of the range, then off its start
        ends = np.concatenate([samples[offsets:], np.zeros(sps - 1, samples.dtype),
                               samples[:sps - 1]])
        partial = np.abs(sliding_window_view(ends, sps) @ self._tap_signs.T)
        energy = self._tap_autocorrelation @ lag_sums - np.sum(partial ** 2, axis=0)
        return int(np.argmax(energy))

    def _acquisition_offsets(self, nsamples: int) -> int:
        """Sample offsets acquisition can score in the leading window of a
        candidate ``nsamples`` long (below 1: too short to acquire)."""
        return min(nsamples, self._ACQ_WINDOW) - self._ACQ_SYMBOLS * self._sps + 1

    def _acquisition_metrics(self, window: np.ndarray) -> np.ndarray:
        """``metric[t, o]``: sum of |correlation with template t| at
        ``o, o+sps, ...`` over ``_ACQ_SYMBOLS`` symbols.

        Bit for bit ``np.sum`` of each score's 32 float32 terms, which
        runs eight accumulators down the terms and folds them as a fixed
        tree: that order, in six adds over the whole window.
        """
        sps = self._sps
        mags = np.abs(self.correlate_bank(window))
        # accumulator j of offset o (terms j, j+8, j+16, j+24) is acc[o + j*sps]
        acc = mags[:, :-8 * sps] + mags[:, 8 * sps:]
        for terms in (16, 24):
            acc = acc[:, :-8 * sps] + mags[:, terms * sps:]
        for lag in (sps, 2 * sps, 4 * sps):  # the tree: pairs, pairs of pairs, halves
            acc = acc[:, :-lag] + acc[:, lag:]
        return acc

    def _pick_timing(self, metrics: np.ndarray) -> Optional[Tuple[int, int]]:
        """(template index, sample offset) maximizing preamble correlation,
        or None when nothing correlates."""
        best_score = float(metrics.max())
        if best_score <= 0:
            return None
        # Any symbol-aligned offset inside the 128-symbol SYNC scores near
        # the maximum; take the *earliest* near-max offset so the SFD is
        # still ahead of us, breaking ties toward the higher score.
        near = metrics >= 0.9 * best_score
        rows = np.arange(len(metrics))
        firsts = near.argmax(axis=1)
        best = None
        for index, (o, found, score) in enumerate(zip(  # one iteration per template
                firsts.tolist(), near[rows, firsts].tolist(),
                metrics[rows, firsts].tolist())):
            if found and (best is None or o < best[1]
                          or (o == best[1] and score > best[2])):
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
            while stop < len(bounds) and bounds[stop][0] < base + self._ACQ_WINDOW:  # one iteration per candidate
                stop += 1
            group = [i for i in range(start, stop) if offsets[i] >= 1]
            start = stop
            if not group:
                continue
            end = max(min(bounds[i][1], bounds[i][0] + self._ACQ_WINDOW) for i in group)
            metrics = self._acquisition_metrics(samples[base:end])
            picked = {}  # candidates cut at the range start share one slice
            for i in group:
                shift = bounds[i][0] - base
                if (shift, offsets[i]) not in picked:
                    picked[shift, offsets[i]] = self._pick_timing(
                        metrics[:, shift:shift + offsets[i]])
                timings[i] = picked[shift, offsets[i]]
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
        window = samples[: min(self._ACQ_WINDOW, samples.size)]
        need = self._ACQ_SYMBOLS * sps
        if window.size < need:
            raise SyncError(f"candidate too short for acquisition ({samples.size} samples)")
        metrics = []
        best_score = -1.0
        for template in self._grid_templates:
            corr = np.convolve(window, template[::-1], mode="valid")
            mag = np.abs(corr)
            max_offset = mag.size - (self._ACQ_SYMBOLS - 1) * sps
            if max_offset <= 0:
                continue
            # metric[o] = sum of |corr| at o, o+sps, ..., over acq_symbols
            idx = np.arange(max_offset)[:, None] + sps * np.arange(self._ACQ_SYMBOLS)[None, :]
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
