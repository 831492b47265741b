"""GFSK modulation and discriminator demodulation (Bluetooth basic rate).

GFSK is a continuous-phase scheme: bits map to +/- frequency deviations,
shaped by a Gaussian pulse (BT = 0.5), and integrated into phase.  The
receive side is an FM discriminator — exactly the per-sample phase
derivative the GFSK fast detector also computes, followed by symbol-timing
selection and hard decisions.

The receive side exists twice.  ``discriminate`` / ``soft_bits`` /
``best_offset`` are the straightforward forms (one double-precision
filter, one reduction and one ``np.correlate`` per symbol alignment) and
stay as the oracle; ``discriminate_channels`` / ``sync_correlation`` /
``hard_bits`` are what the Bluetooth scan runs: single precision, every
channel and every alignment from one pass, a tile at a time.  The scan
discriminates a range once (``frequency_rows``) and derives each
candidate slice's rows from it (``discriminate_slice``), bit for bit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from repro.constants import BT_GAUSSIAN_BT, BT_MODULATION_INDEX, BT_SYMBOL_RATE
from repro.dsp.filters import fir_lowpass, filter_signal, gaussian_pulse
from repro.dsp.phase import phase_derivative


#: elements per tile of the receive kernels: a tile — every channel's
#: row of it — stays cache-resident across the passes made over it
_TILE = 65536

#: longest mixer period, in samples, that is tiled rather than computed
_MAX_MIXER_PERIOD = 64


@lru_cache(maxsize=256)
def _mixer_period(cycles: float) -> Optional[np.ndarray]:
    """One period of ``exp(2j pi cycles n)``, or None when it does not
    repeat within ``_MAX_MIXER_PERIOD`` samples."""
    for period in range(1, _MAX_MIXER_PERIOD + 1):
        if abs(cycles * period - round(cycles * period)) < 1e-9:
            n = np.arange(period, dtype=np.float64)
            return np.exp(2j * np.pi * cycles * n).astype(np.complex64)
    return None


def _mixer(cycles: float, count: int) -> Callable[[int], np.ndarray]:
    """``start -> exp(2j pi cycles n)`` for ``start <= n < start + count``,
    complex64.

    Bluetooth channels sit on a 1 MHz raster, so the oscillator usually
    repeats every few samples: one table of ``count`` samples and a
    period, tiled once, is read from ``start % period``.  An offset off
    the raster evaluates ``np.exp`` from ``start`` on each read.
    """
    one = _mixer_period(cycles)
    if one is None:
        def read(start: int) -> np.ndarray:
            n = np.arange(start, start + count, dtype=np.float64)
            return np.exp(2j * np.pi * cycles * n).astype(np.complex64)
        return read
    table = np.tile(one, -(-count // one.size) + 1)
    return lambda start: table[start % one.size:][:count]


def _row_means(rows: np.ndarray) -> np.ndarray:
    """Each row's float64 mean, rounded once to float32, as a column."""
    return rows.mean(axis=1, dtype=np.float64, keepdims=True).astype(np.float32)


def centre(rows: np.ndarray) -> np.ndarray:
    """Remove each row's mean from ``rows``, in place, and return them:
    what turns :meth:`GfskModem.frequency_rows` into
    :meth:`GfskModem.discriminate_channels`.  Rows of no samples have no
    mean and are left as they are."""
    if rows.shape[1]:
        rows -= _row_means(rows)
    return rows


class GfskModem:
    """Modulator/demodulator pair at a fixed capture rate.

    The receive path applies a channel-selection low-pass before the FM
    discriminator (``channel_filter``): the monitored band is much wider
    than the 1 MHz GFSK signal, and discriminating against full-band noise
    costs ~9 dB of sensitivity.
    """

    def __init__(
        self,
        sample_rate: float,
        symbol_rate: float = BT_SYMBOL_RATE,
        modulation_index: float = BT_MODULATION_INDEX,
        bt: float = BT_GAUSSIAN_BT,
        channel_filter: bool = True,
    ):
        sps = sample_rate / symbol_rate
        if not float(sps).is_integer() or sps < 2:
            raise ValueError(
                f"sample_rate must be an integer multiple >=2 of {symbol_rate}"
            )
        self.sample_rate = sample_rate
        self.symbol_rate = symbol_rate
        self.sps = int(sps)
        self.h = modulation_index
        self._pulse = gaussian_pulse(bt, self.sps)
        self._chan_taps = self._chan_taps32 = None
        if channel_filter and sample_rate > 1.5 * symbol_rate:
            self._chan_taps = fir_lowpass(0.6 * symbol_rate, sample_rate, ntaps=33)
            self._chan_taps32 = self._chan_taps.astype(np.float32)
        #: filtered sample k of a range reads samples k - _half .. k + _half
        self._half = 0 if self._chan_taps32 is None else (self._chan_taps32.size - 1) // 2
        #: the central half of each symbol (edges carry ISI) is what a
        #: bit decision averages: samples [_lo, _lo + _width) of the symbol
        self._lo = self.sps // 4
        self._width = self.sps - 2 * self._lo

    # -- transmit ----------------------------------------------------------

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Unit-amplitude GFSK waveform for a bit stream."""
        bits = np.asarray(bits, dtype=np.uint8)
        nrz = 2.0 * bits - 1.0
        freq = np.repeat(nrz, self.sps)
        shaped = np.convolve(freq, self._pulse, mode="same")
        # phase step per sample: pi * h * f / sps
        phase = np.cumsum(np.pi * self.h * shaped / self.sps)
        return np.exp(1j * phase).astype(np.complex64)

    def duration(self, nbits: int) -> float:
        return nbits / self.symbol_rate

    # -- receive -----------------------------------------------------------

    def discriminate(self, samples: np.ndarray) -> np.ndarray:
        """Per-sample frequency estimate with the packet-mean removed.

        Removing the mean cancels the carrier-frequency offset contributed
        by the (known or unknown) channel center, leaving +/- deviations.
        """
        if self._chan_taps is not None:
            samples = filter_signal(samples, self._chan_taps)
        d1 = phase_derivative(samples)
        if d1.size == 0:
            return d1
        # pad to the input length so the final symbol keeps a full window
        d1 = np.concatenate([d1, d1[-1:]])
        return d1 - np.mean(d1)

    def soft_bits(self, samples: np.ndarray, offset: int = 0,
                  disc: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-symbol mean frequency at a given sample offset (soft values).

        Pass a precomputed ``disc`` (from :meth:`discriminate`) when
        evaluating several offsets of the same samples.
        """
        if disc is None:
            disc = self.discriminate(samples)
        usable = disc.size - offset
        nsym = usable // self.sps
        if nsym <= 0:
            return np.zeros(0)
        block = disc[offset : offset + nsym * self.sps].reshape(nsym, self.sps)
        return block[:, self._lo : self._lo + self._width].mean(axis=1)

    def demodulate(self, samples: np.ndarray, offset: int = 0,
                   disc: Optional[np.ndarray] = None) -> np.ndarray:
        """Hard bit decisions at a given symbol-timing offset."""
        return (self.soft_bits(samples, offset, disc) > 0).astype(np.uint8)

    def best_offset(self, samples: np.ndarray, sync_bits: np.ndarray,
                    disc: Optional[np.ndarray] = None):
        """Pick the symbol-timing offset maximizing sync-word correlation.

        Returns ``(offset, bit_position, score)`` where ``bit_position`` is
        the index of the first sync bit within the offset's bit stream and
        ``score`` is the correlation peak in [..len(sync)].
        """
        if disc is None:
            disc = self.discriminate(samples)
        pattern = 2.0 * np.asarray(sync_bits, dtype=np.float64) - 1.0
        best = (0, -1, -np.inf)
        for offset in range(self.sps):
            soft = self.soft_bits(samples, offset, disc)
            if soft.size < pattern.size:
                continue
            hard = np.sign(soft)
            corr = np.correlate(hard, pattern, mode="valid")
            pos = int(np.argmax(corr))
            score = float(corr[pos])
            if score > best[2]:
                best = (offset, pos, score)
        return best

    # -- receive, every channel and alignment from one pass ------------------

    def discriminate_channels(self, samples: np.ndarray,
                              channel_offsets_hz: Sequence[float] = (0.0,)) -> np.ndarray:
        """:meth:`discriminate` for each of several channels of ``samples``.

        ``channel_offsets_hz`` are the channels' centre frequencies
        relative to the capture's.  Returns a ``(channels, len(samples))``
        float32 array: row ``i`` is the mean-removed per-sample frequency
        estimate of channel ``i`` mixed down to DC.  Mixer, channel
        filter and phase derivative all stay in single precision.
        """
        # fewer than two samples give (channels, 0), which centre()
        # leaves untouched
        return centre(self.frequency_rows(samples, channel_offsets_hz))

    def frequency_rows(self, samples: np.ndarray,
                       channel_offsets_hz: Sequence[float] = (0.0,)) -> np.ndarray:
        """:meth:`discriminate_channels` before each row's mean is removed
        (:func:`centre` removes it): what :meth:`centred_sync_correlation`
        searches and :meth:`discriminate_slice` derives a slice's rows
        from."""
        return self._frequency_rows(np.asarray(samples, dtype=np.complex64),
                                    channel_offsets_hz, 0)

    def discriminate_slice(self, samples: np.ndarray, rows: np.ndarray,
                           channel_offsets_hz: Sequence[float],
                           lo: int, hi: int) -> np.ndarray:
        """:meth:`discriminate_channels` of ``samples[lo:hi]``, bit for bit,
        from ``rows = frequency_rows(samples, channel_offsets_hz)`` — with
        the oscillator still indexed from ``samples[0]``.

        A derivative sample whose filter windows lie inside the slice is
        the range's: it is copied.  Only the ``half`` samples at the head
        and the ``half`` at the tail whose windows reach past the slice,
        plus the padded last one, are recomputed, from ``2 * half + 2``
        samples of the range at each end that is not the range's own; the
        slice's own mean is then removed.  A slice shorter than its two
        edges is discriminated whole.
        """
        x = np.asarray(samples, dtype=np.complex64)
        half = self._half
        edge = 2 * half + 2
        if hi - lo < 2 * edge:
            out = self._frequency_rows(x[lo:hi], channel_offsets_hz, lo)
        else:
            out = rows[:, lo:hi].copy()
            # where the slice ends with the range, its zero padding is
            # the range's and so are those samples
            if lo > 0:
                head = self._frequency_rows(x[lo : lo + edge], channel_offsets_hz, lo)
                out[:, :half] = head[:, :half]
            if hi < x.size:
                tail = self._frequency_rows(x[hi - edge : hi], channel_offsets_hz,
                                            hi - edge)
                out[:, -half - 1:] = tail[:, -half - 1:]
        return centre(out)

    def _frequency_rows(self, x: np.ndarray, channel_offsets_hz: Sequence[float],
                        start: int) -> np.ndarray:
        """The uncentred rows of complex64 ``x``, its sample ``k`` mixed
        by the oscillator's sample ``start + k``."""
        n = x.size
        rows = len(channel_offsets_hz)
        if n < 2:
            return np.zeros((rows, 0), dtype=np.float32)
        taps = self._chan_taps32
        half = self._half
        # np.convolve sums a piece shorter than the filter the other way
        # round, so no piece is left that short (unless the range is):
        # tiles are over half derivatives long, and a last tile of half
        # or fewer joins the tile before it
        tile = max(_TILE // rows, half + 1)
        ends = list(range(tile, n - 1, tile))
        if ends and n - 1 - ends[-1] <= half:
            ends.pop()
        width = min(tile + half, n - 1)
        # the oscillator is indexed from the buffer's first sample, not
        # each tile's: a mixed sample, and so every derivative sample, is
        # the same whichever tile — or slice — computes it
        mixers = [_mixer(-offset_hz / self.sample_rate, min(width + 1 + 2 * half, n))
                  if offset_hz else None for offset_hz in channel_offsets_hz]
        out = np.empty((rows, n), dtype=np.float32)
        re = np.empty((rows, width + 1), dtype=np.float32)
        im = np.empty_like(re)
        # derivative k needs filtered samples k and k + 1
        for a, b in zip([0] + ends, ends + [n - 1]):
            lo, hi = max(a - half, 0), min(b + 1 + half, n)
            keep = slice(a - lo + half, b + 1 - lo + half)
            for row, mixer in enumerate(mixers):
                mixed = x[lo:hi] if mixer is None else x[lo:hi] * mixer(start + lo)[: hi - lo]
                if taps is None:
                    re[row, : b + 1 - a] = mixed.real
                    im[row, : b + 1 - a] = mixed.imag
                else:
                    # "full" zero-pads past the ends of the range the
                    # way discriminate()'s "same" does
                    re[row, : b + 1 - a] = np.convolve(mixed.real, taps)[keep]
                    im[row, : b + 1 - a] = np.convolve(mixed.imag, taps)[keep]
            r0, r1 = re[:, : b - a], re[:, 1 : b + 1 - a]
            i0, i1 = im[:, : b - a], im[:, 1 : b + 1 - a]
            # angle(y[k + 1] * conj(y[k]))
            np.arctan2(i1 * r0 - r1 * i0, r1 * r0 + i1 * i0, out=out[:, a:b])
        out[:, n - 1] = out[:, n - 2]
        return out

    def _symbol_sums(self, disc: np.ndarray) -> np.ndarray:
        """Sum of ``disc[..., k + _lo : k + _lo + _width]`` for every
        symbol start ``k``: all ``sps`` alignments' soft bits at once
        (alignment ``j`` is the ``j::sps`` view), added in the order
        ``soft_bits``' mean adds them."""
        count = disc.shape[-1] - self._lo - self._width + 1
        sums = disc[..., self._lo : self._lo + count].copy()
        for k in range(self._lo + 1, self._lo + self._width):
            sums += disc[..., k : k + count]
        return sums

    def hard_bits(self, disc: np.ndarray, offset: int = 0) -> np.ndarray:
        """:meth:`demodulate`'s bit decisions from one row of
        :meth:`discriminate_channels`."""
        nsym = max((disc.size - offset) // self.sps, 0)
        block = disc[offset : offset + nsym * self.sps].reshape(nsym, self.sps)
        return (self._symbol_sums(block)[:, 0] > 0).astype(np.uint8)

    def sync_correlation(self, disc: np.ndarray, sync_bits: np.ndarray) -> np.ndarray:
        """:meth:`best_offset`'s sync-word correlation at every sample a
        symbol could start at, for every row of ``disc``.

        ``disc`` is ``(channels, n)`` from :meth:`discriminate_channels`.
        Entry ``[c, k]`` is ``np.correlate(np.sign(soft), 2 * sync - 1)``
        of channel ``c`` at alignment ``k % sps``, bit position
        ``k // sps`` — matching bits minus mismatching ones among the
        ``len(sync_bits)`` symbols starting at sample ``k`` — as int8.
        Only windows that end inside the range are scored, so the result
        is ``(channels, max(n - len(sync_bits) * sps + 1, 0))``.
        """
        return self._sync_correlation(disc, sync_bits, centred=False)

    def centred_sync_correlation(self, rows: np.ndarray,
                                 sync_bits: np.ndarray) -> np.ndarray:
        """:meth:`sync_correlation` of ``centre(rows.copy())`` for
        :meth:`frequency_rows` output, without the copy: each tile is
        centred as the search reads it, and ``rows`` is left as it is."""
        return self._sync_correlation(rows, sync_bits, centred=True)

    def _sync_correlation(self, disc: np.ndarray, sync_bits: np.ndarray,
                          centred: bool) -> np.ndarray:
        sync = np.asarray(sync_bits, dtype=bool).tolist()
        sps = self.sps
        rows, n = disc.shape
        total = max(n - len(sync) * sps + 1, 0)
        out = np.zeros((rows, total), dtype=np.int8)
        means = _row_means(disc) if centred and total else None
        # the last symbol of the window starting at k reads up to
        # k + (len(sync) - 1) * sps + _lo + _width
        reach = (len(sync) - 1) * sps + self._lo + self._width
        tile = max(_TILE // rows, 1)
        for a in range(0, total, tile):
            b = min(a + tile, total)
            block = disc[:, a : b - 1 + reach]
            sums = self._symbol_sums(block if means is None else block - means)
            signs = (sums > 0).view(np.int8) - (sums < 0).view(np.int8)
            # +-1 taps: the correlation is adds and subtracts of the
            # sign array's shifted views
            score = out[:, a:b]
            for j, bit in enumerate(sync):
                shifted = signs[:, j * sps : j * sps + b - a]
                if bit:
                    score += shifted
                else:
                    score -= shifted
        return out

    def best_match(self, correlation: np.ndarray):
        """:meth:`best_offset`'s ``(offset, bit_position, score)`` from one
        row of :meth:`sync_correlation`: the highest score, at the first
        alignment that reaches it and the first position there."""
        if correlation.size == 0:
            return 0, -1, -np.inf
        score = correlation.max()
        starts = np.flatnonzero(correlation == score)
        start = int(starts[np.argmin(starts % self.sps)])
        return start % self.sps, start // self.sps, float(score)
