"""DBPSK / Barker phase detector (802.11b).

Section 4.5: the 22 MHz Barker-chipped signal captured at 8 Msps forces a
"somewhat inelegant" solution — precompute the sequence of phase changes
across the 8 samples of a symbol expected from Barker chipping, and
correlate it against the incoming phase-change stream.  A peak is 802.11b
when some (alignment, chip-phase) template correlates strongly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np

from repro.core.detectors.base import Classification, Detector
from repro.core.metadata import Peak
from repro.core.peak_detector import IMPLEMENTATIONS, PeakDetectionResult
from repro.dsp.samples import SampleBuffer
from repro.phy.barker import phase_change_template, samples_per_symbol


class DbpskPhaseDetector(Detector):
    """Classifies peaks whose phase-change signs match Barker chipping.

    The score of a (chip-phase template, symbol alignment) pair is
    min(fraction of predicted-keep transitions observed positive,
    fraction of predicted-flip transitions observed negative): a
    constant-phase signal (CW, GFSK) matches only one polarity and
    scores ~0.5 at best, while Barker chipping matches both and scores
    near 1 at reasonable SNR.

    Each fraction is a ratio of integer counts, so the whole
    (template x alignment) table comes from the per-column counts of
    positive and negative transitions through two small 0/1 selection
    matrices.  ``impl="reference"`` (constructor-only) walks the table
    pair by pair with ``np.mean`` instead — the equivalence oracle and
    the ``rfbench phase_detectors`` baseline; both return equal floats.
    """

    protocol = "wifi"
    kind = "phase"

    #: chip-phase grid to search (matches the demodulator's)
    _PHASES = np.arange(0.0, 11.0 / 8.0, 1.0 / 8.0)

    def __init__(self, threshold: float = 0.62, max_samples: int = 1536,
                 min_duration: float = 150e-6, trim: bool = False,
                 trim_window_symbols: int = 16, impl: str = "vectorized"):
        """``trim=True`` restricts each classification to the *portion* of
        the peak that actually carries DBPSK/Barker symbols — the whole
        packet at 1 Mbps but only the PLCP preamble/header of CCK-rate
        packets.  This is the behaviour behind Table 4's selectivity
        numbers ("the headers of all the other packets")."""
        if impl not in IMPLEMENTATIONS:
            raise ValueError(
                f"unknown impl {impl!r}; known: {', '.join(IMPLEMENTATIONS)}"
            )
        self.threshold = threshold
        self.max_samples = max_samples
        self.min_duration = min_duration
        self.trim = trim
        self.trim_window_symbols = trim_window_symbols
        self.impl = impl
        self._sps = None
        self._templates = None

    def _prepare(self, sample_rate: float) -> None:
        sps = samples_per_symbol(sample_rate)
        if not float(sps).is_integer():
            raise ValueError("sample_rate must be an integer multiple of 1 MSym/s")
        sps = self._sps = int(sps)
        # in-symbol phase-change signs; the final transition of each symbol
        # crosses the symbol boundary and depends on the data, so only the
        # first sps-1 positions are predictable.  A template that predicts
        # only keeps or only flips cannot tell chipping from a tone.
        keeps = [phase_change_template(sample_rate, phase) > 0
                 for phase in self._PHASES]
        self._templates = [k for k in keeps if k.any() and not k.all()]
        # transition c of a template at alignment ``align`` sits in grid
        # column _cols[align, c]; row t*sps + align of the selection
        # matrices marks the columns template t reads there
        cols = self._cols = (np.arange(sps - 1) + np.arange(sps)[:, None]) % sps
        rows = len(self._templates) * sps
        self._keep_sel = np.zeros((rows, sps), dtype=np.int64)
        self._flip_sel = np.zeros((rows, sps), dtype=np.int64)
        # runs once per detector: one iteration per usable template
        for t, keep in enumerate(self._templates):
            block = np.arange(t * sps, (t + 1) * sps)[:, None]
            self._keep_sel[block, cols[:, keep]] = 1
            self._flip_sel[block, cols[:, ~keep]] = 1
        self._nkeep = self._keep_sel.sum(axis=1)
        self._nflip = self._flip_sel.sum(axis=1)

    def _transitions(self, segment: np.ndarray) -> np.ndarray:
        """``Re(x[n] conj(x[n-1]))`` as an ``(nsym, sps)`` grid — its sign
        is the sign of each sample-to-sample phase change."""
        sps = self._sps
        d = segment[1:] * np.conj(segment[:-1])
        nsym = d.size // sps
        return d.real[: nsym * sps].reshape(nsym, sps)

    def _best_match(self, grid: np.ndarray) -> Tuple[int, float]:
        """``(row, score)`` of the best (template, alignment) pair over a
        transition grid; the first such row in template-major order."""
        if not self._templates:
            return -1, -1.0
        if self.impl == "reference":
            return self._best_match_reference(grid)
        nsym = grid.shape[0]
        # integer counts over integer denominators: exactly the float64
        # quotient np.mean returns for the gathered boolean block
        pos = (grid > 0).sum(axis=0)
        neg = (grid < 0).sum(axis=0)
        scores = np.minimum(self._keep_sel @ pos / (nsym * self._nkeep),
                            self._flip_sel @ neg / (nsym * self._nflip))
        row = int(np.argmax(scores))
        return row, float(scores[row])

    def _best_match_reference(self, grid: np.ndarray) -> Tuple[int, float]:
        """The pair-by-pair walk, kept as the equivalence oracle."""
        sps = self._sps
        signs = np.sign(grid)
        best = (-1, -1.0)
        # reference implementation: (template x alignment) Python loop
        for t, keep in enumerate(self._templates):
            for align in range(sps):
                picked = signs[:, self._cols[align]]
                score = min(float(np.mean(picked[:, keep] > 0)),
                            float(np.mean(picked[:, ~keep] < 0)))
                if score > best[1]:
                    best = (t * sps + align, score)
        return best

    def _score(self, segment: np.ndarray) -> float:
        """Best balanced sign-match over alignments and chip phases."""
        grid = self._transitions(segment)
        if grid.shape[0] < 8:
            return -1.0
        return self._best_match(grid)[1]

    def _matched_symbols(self, segment: np.ndarray) -> int:
        """Length (in symbols) of the DBPSK-matching prefix of a segment.

        Re-scores per window of ``trim_window_symbols`` using the best
        (template, alignment) and returns the number of symbols before the
        first window that stops matching — the CCK payload of a 5.5/11 Mbps
        packet fails immediately after the PLCP header.
        """
        sps = self._sps
        grid = self._transitions(segment)
        nsym = grid.shape[0]
        if nsym < 8:
            return 0
        row, score = self._best_match(grid[:128])
        if score < self.threshold:
            return 0
        t, align = divmod(row, sps)
        keep = self._templates[t]
        picked = grid[:, self._cols[align]]
        per_symbol = np.minimum(
            (picked[:, keep] > 0).mean(axis=1),
            (picked[:, ~keep] < 0).mean(axis=1),
        )
        window = self.trim_window_symbols
        nwin = nsym // window
        if nwin == 0:
            return nsym
        win_scores = per_symbol[: nwin * window].reshape(nwin, window).mean(axis=1)
        bad = np.flatnonzero(win_scores < self.threshold)
        if bad.size == 0:
            return nsym
        return int(bad[0]) * window

    def tail_matches(self, peak: Peak, buffer: SampleBuffer) -> bool:
        """Does Barker chipping reach the end of a peak this detector
        claimed?  :meth:`classify` scores only the first ``max_samples``
        samples; this re-scores the last ``max_samples`` with the same
        test and threshold.  A peak no longer than that is covered by the
        head score already."""
        if peak.length <= self.max_samples:
            return True
        if self._sps is None:
            self._prepare(buffer.sample_rate)
        tail = buffer.slice(peak.end_sample - self.max_samples,
                            peak.end_sample).samples
        return self._score(tail) >= self.threshold

    def classify(self, detection: PeakDetectionResult,
                 buffer: SampleBuffer) -> List[Classification]:
        if buffer is None:
            raise ValueError("phase detectors need the sample buffer")
        fs = buffer.sample_rate
        if self._sps is None:
            self._prepare(fs)
        out: List[Classification] = []
        # one iteration per peak; each does O(1) numpy calls
        for peak in detection.history:
            if peak.length / fs < self.min_duration:
                continue
            hi = min(peak.end_sample, peak.start_sample + self.max_samples)
            segment = buffer.slice(peak.start_sample, hi).samples
            score = self._score(segment)
            if score < self.threshold:
                continue
            # the balanced match fraction is itself a calibrated confidence
            confidence = min(score, 1.0)
            classified_peak = peak
            info = {"barker_score": score, "modulation": "DBPSK"}
            if self.trim:
                full = buffer.slice(peak.start_sample, peak.end_sample).samples
                nsym = self._matched_symbols(full)
                trimmed_end = peak.start_sample + max(nsym, 8) * self._sps
                if trimmed_end < peak.end_sample:
                    classified_peak = replace(peak, end_sample=trimmed_end)
                    info["trimmed"] = True
            out.append(
                Classification(
                    classified_peak, self.protocol, self.name, confidence,
                    info=info,
                )
            )
        return self._dedup(out)
