"""Protocol-agnostic peak detection with integrated energy filtering.

Section 4.3: the energy filter is folded into the peak detector so that
timing information survives (chunks carry timestamps).  Per chunk, the
average energy of the trailing window decides whether the chunk is worth
examining; within active regions the start and end of each peak are
located precisely using the moving-average energy plus an instantaneous
magnitude threshold.

The implementation is fully vectorized numpy — the equivalent of the
paper's C++ GNU Radio block — and its measured cost per sample is what
Table 1's "Peak/Energy detection" row (and the ``peak_detection``
``rfbench`` microbenchmark) reproduces.  The energy gate runs tile by
tile over cache-resident scratch (:func:`repro.dsp.energy.chunked_power`,
:func:`repro.dsp.energy.energy_gate`); interval merging, per-peak power
statistics and the peak->chunk assignment run as whole-array operations
(:func:`np.add.reduceat`, ``np.bincount``, ``np.repeat``).  The
whole-array gate and the pre-vectorization Python-loop kernels are
retained as ``impl="reference"`` so equivalence can be asserted (and the
speedup measured) against them — see ``repro.bench.equivalence``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.constants import (
    DEFAULT_CHUNK_SAMPLES,
    DEFAULT_ENERGY_THRESHOLD_DB,
    DEFAULT_ENERGY_WINDOW,
)
from repro.core.metadata import ChunkMetadata, Peak, PeakHistory
from repro.dsp.energy import (
    chunk_average_of,
    chunk_average_power,
    chunked_power,
    energy_gate,
    instant_power,
    interval_stats,
    moving_average_of,
)
from repro.dsp.samples import SampleBuffer
from repro.util.db import db_to_linear

#: kernel implementations ``PeakDetector`` can run
IMPLEMENTATIONS = ("vectorized", "reference")


@dataclass
class PeakDetectorConfig:
    """Tunable knobs of the peak detector (paper defaults)."""

    chunk_samples: int = DEFAULT_CHUNK_SAMPLES
    energy_window: int = DEFAULT_ENERGY_WINDOW
    threshold_db: float = DEFAULT_ENERGY_THRESHOLD_DB
    #: fraction of the averaged threshold the instantaneous magnitude must
    #: reach when refining peak edges
    instantaneous_factor: float = 0.5
    #: gaps shorter than this (samples) do not split a peak — "do not
    #: discard short bursts of low-energy samples between blocks of
    #: interest" (Section 3.1)
    min_gap: int = 24
    #: peaks shorter than this (samples) are discarded as noise spikes —
    #: 5 us is far below the shortest real transmission considered
    min_length: int = 40

    def __post_init__(self):
        if self.chunk_samples <= 0 or self.energy_window <= 0:
            raise ValueError("chunk and window sizes must be positive")
        if self.energy_window > self.chunk_samples:
            raise ValueError("energy window cannot exceed the chunk size")


class PeakDetectionResult:
    """Everything the protocol-specific detectors consume.

    ``chunks`` (the per-chunk metadata records) are materialized lazily:
    the timing detectors work on the peak history alone, so the common
    path never pays for building thousands of chunk records.
    """

    def __init__(self, history: PeakHistory, noise_floor: float,
                 threshold: float, total_samples: int,
                 chunks: Optional[List[ChunkMetadata]] = None,
                 chunk_builder=None, nonfinite_samples: int = 0):
        self.history = history
        self.noise_floor = noise_floor
        self.threshold = threshold
        self.total_samples = total_samples
        #: NaN/Inf samples zeroed before gating (0 on a healthy window)
        self.nonfinite_samples = nonfinite_samples
        self._chunks = chunks
        self._chunk_builder = chunk_builder

    @property
    def chunks(self) -> List[ChunkMetadata]:
        if self._chunks is None:
            if self._chunk_builder is None:
                self._chunks = []
            else:
                self._chunks = self._chunk_builder()
        return self._chunks

    @property
    def peaks(self) -> List[Peak]:
        return list(self.history)


class PeakDetector:
    """The protocol-agnostic detection stage.

    ``obs`` (an :class:`repro.obs.Observability`, settable after
    construction) records the deterministic detection metrics: peaks
    found, samples scanned, and the tracked noise floor.

    ``impl`` selects the kernel implementation: ``"vectorized"`` (the
    default) or ``"reference"``, the whole-array gate and
    pre-vectorization Python-loop version kept for equivalence testing
    and as the benchmark baseline.  Both produce identical activity
    masks, intervals, chunk metadata and dispatch decisions; the
    reference's per-peak means agree to ULP-level rounding.
    """

    def __init__(self, config: Optional[PeakDetectorConfig] = None, obs=None,
                 impl: str = "vectorized"):
        if impl not in IMPLEMENTATIONS:
            raise ValueError(
                f"unknown impl {impl!r}; known: {', '.join(IMPLEMENTATIONS)}"
            )
        self.config = config or PeakDetectorConfig()
        self.obs = obs
        self.impl = impl

    def estimate_noise_floor(self, buffer: SampleBuffer) -> float:
        """Noise floor as a low percentile of per-chunk powers."""
        powers = chunk_average_power(buffer.samples, self.config.chunk_samples)
        if powers.size == 0:
            raise ValueError("empty buffer")
        return float(np.percentile(powers, 10.0))

    def detect(self, buffer: SampleBuffer, noise_floor: Optional[float] = None) -> PeakDetectionResult:
        """Find peaks and build chunk metadata for a buffer."""
        cfg = self.config
        samples = buffer.samples
        # |x|^2 is needed by every sub-stage; compute it exactly once
        if self.impl == "reference":
            power = instant_power(samples)
            chunk_powers = chunk_average_of(power, cfg.chunk_samples)
        else:
            power, chunk_powers = chunked_power(samples, cfg.chunk_samples)
        nonfinite = self._zero_nonfinite(power, chunk_powers)
        if noise_floor is None:
            if chunk_powers.size == 0:
                raise ValueError("empty buffer")
            noise_floor = float(np.percentile(chunk_powers, 10.0))
        threshold = noise_floor * float(db_to_linear(cfg.threshold_db))

        # samples that pass both the averaged gate and — so averaged tails
        # don't smear peak boundaries by a full window — an instantaneous
        # one at a fraction of the threshold
        instant_threshold = cfg.instantaneous_factor * threshold
        if self.impl == "reference":
            active = moving_average_of(power, cfg.energy_window) > threshold
            active &= power > instant_threshold
        else:
            active = energy_gate(power, cfg.energy_window, threshold,
                                 instant_threshold)

        history = PeakHistory(buffer.sample_rate)
        if self.impl == "reference":
            intervals = self._intervals_reference(active)
            self._fill_history_reference(history, buffer, power, intervals)
            chunk_builder = lambda: self._chunk_metadata_reference(  # noqa: E731
                buffer, chunk_powers, threshold, history
            )
        else:
            istarts, iends = self._intervals_vectorized(active)
            if istarts.size:
                _, means, maxes = interval_stats(power, istarts, iends)
                history.extend_from_arrays(
                    buffer.start_sample + istarts.astype(np.int64),
                    buffer.start_sample + iends.astype(np.int64),
                    means, maxes,
                )
            chunk_builder = lambda: self._chunk_metadata_vectorized(  # noqa: E731
                buffer, chunk_powers, threshold, history
            )

        if self.obs:
            self.obs.counter(
                "rfdump_peaks_total", help="peaks found by the detection stage"
            ).inc(len(history))
            self.obs.counter(
                "rfdump_peak_scan_samples_total",
                help="samples scanned by the peak detector",
            ).inc(len(samples))
            self.obs.gauge(
                "rfdump_noise_floor_power",
                help="tracked noise-floor estimate (linear power)",
            ).set(noise_floor)

        return PeakDetectionResult(
            history=history,
            noise_floor=noise_floor,
            threshold=threshold,
            total_samples=len(samples),
            chunk_builder=chunk_builder,
            nonfinite_samples=nonfinite,
        )

    # -- shared ---------------------------------------------------------------

    def _zero_nonfinite(self, power: np.ndarray,
                        chunk_powers: np.ndarray) -> int:
        """Zero the NaN/Inf entries of ``power``; returns how many.

        One non-finite sample would poison the window-long running sum
        and blind the gate for every later sample.  Such a sample makes
        its chunk's mean non-finite, so ``chunk_powers`` (left untouched:
        the first-window noise-floor estimate keeps its semantics) says
        which few chunks to inspect.  A lone zeroed sample is a hole
        shorter than ``min_gap``, so it can still sit inside a peak: the
        pipeline hands the later stages :meth:`SampleBuffer.finite`.
        """
        bad_chunks = np.flatnonzero(~np.isfinite(chunk_powers))
        if bad_chunks.size == 0:
            return 0
        cs = self.config.chunk_samples
        idx = (bad_chunks[:, None] * cs + np.arange(cs)).ravel()
        idx = idx[idx < power.size]
        bad = idx[~np.isfinite(power[idx])]
        power[bad] = 0.0
        zeroed = int(bad.size)
        if zeroed and self.obs:
            self.obs.counter(
                "rfdump_peak_nonfinite_samples_total",
                help="NaN/Inf samples the peak detector zeroed so the rest "
                     "of their window stays detectable",
            ).inc(zeroed)
        return zeroed

    @staticmethod
    def _run_edges(active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Starts/ends of contiguous True runs in the activity mask."""
        if active.size == 0:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        # run boundaries alternate start, end, start, ... once the
        # buffer's own edges close the first and last run
        edges = np.flatnonzero(active[1:] != active[:-1]) + 1
        if active[0]:
            edges = np.concatenate([[0], edges])
        if active[-1]:
            edges = np.concatenate([edges, [active.size]])
        return edges[0::2], edges[1::2]

    # -- vectorized kernels ---------------------------------------------------

    def _intervals_vectorized(self, active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gap-merged, length-filtered peak intervals as index arrays.

        Runs separated by less than ``min_gap`` coalesce: a boolean break
        mask over the inter-run gaps selects each merged group's first
        start and last end — no per-run Python iteration.
        """
        cfg = self.config
        starts, ends = self._run_edges(active)
        if starts.size == 0:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty.copy()
        # runs are sorted and disjoint, so the gap before run i is
        # starts[i] - ends[i-1]; a True marks the start of a new group
        breaks = (starts[1:] - ends[:-1]) >= cfg.min_gap
        first = np.concatenate([[True], breaks])
        last = np.concatenate([breaks, [True]])
        gstarts = starts[first]
        gends = ends[last]
        keep = (gends - gstarts) >= cfg.min_length
        return gstarts[keep].astype(np.intp), gends[keep].astype(np.intp)

    def _chunk_metadata_vectorized(self, buffer: SampleBuffer, chunk_powers: np.ndarray,
                                   threshold: float, history: PeakHistory) -> List[ChunkMetadata]:
        """Peak->chunk assignment via bincount/repeat instead of a
        history x chunks Python fill."""
        cfg = self.config
        cs = cfg.chunk_samples
        nchunks = chunk_powers.size
        npeaks = len(history)

        starts = history.starts - buffer.start_sample
        ends = history.ends - buffer.start_sample
        first_chunk = np.maximum(starts // cs, 0)
        last_chunk = np.minimum((ends - 1) // cs, nchunks - 1)
        lengths = np.maximum(last_chunk - first_chunk + 1, 0)
        total = int(lengths.sum())

        if total:
            run_offsets = np.concatenate([[0], np.cumsum(lengths[:-1])])
            pos = np.arange(total, dtype=np.int64) - np.repeat(run_offsets, lengths)
            chunk_idx = np.repeat(first_chunk, lengths) + pos
            peak_ids = np.repeat(np.arange(npeaks, dtype=np.int64), lengths)
            counts = np.bincount(chunk_idx, minlength=nchunks)
            # group peak ids by chunk, ascending peak index within a chunk
            # (byte-identical to the reference append order)
            order = np.lexsort((peak_ids, chunk_idx))
            sorted_ids = peak_ids[order]
            offsets = np.concatenate([[0], np.cumsum(counts)])
        else:
            counts = np.zeros(nchunks, dtype=np.int64)
            sorted_ids = np.zeros(0, dtype=np.int64)
            offsets = np.zeros(nchunks + 1, dtype=np.int64)

        base = buffer.start_sample
        end_sample = buffer.end_sample
        active = chunk_powers > threshold
        active_list = active.tolist()
        power_list = chunk_powers.tolist()
        counts_list = counts.tolist()
        offsets_list = offsets.tolist()
        return [
            ChunkMetadata(
                start_sample=base + i * cs,
                n_samples=min(cs, end_sample - (base + i * cs)),
                mean_power=power_list[i],
                n_peaks=counts_list[i],
                active=active_list[i],
                peak_indices=sorted_ids[offsets_list[i]:offsets_list[i + 1]].tolist(),
                history=history,
            )
            for i in range(nchunks)
        ]

    # -- reference kernels (pre-vectorization; equivalence + baseline) --------

    def _intervals_reference(self, active: np.ndarray) -> List[Tuple[int, int]]:
        """The original per-run merge loop, kept as the equivalence oracle."""
        cfg = self.config
        starts, ends = self._run_edges(active)
        intervals: List[Tuple[int, int]] = []
        # reference implementation: deliberately loopy (rfbench baseline)
        for start, end in zip(starts, ends):
            if intervals and start - intervals[-1][1] < cfg.min_gap:
                intervals[-1] = (intervals[-1][0], int(end))
            else:
                intervals.append((int(start), int(end)))
        return [(s, e) for s, e in intervals if e - s >= cfg.min_length]

    def _fill_history_reference(self, history: PeakHistory, buffer: SampleBuffer,
                                power: np.ndarray, intervals: List[Tuple[int, int]]) -> None:
        # reference implementation: per-peak slice/mean/max Python round trips
        for start, end in intervals:
            seg = power[start:end]
            history.append(
                buffer.start_sample + start,
                buffer.start_sample + end,
                float(seg.mean()),
                float(seg.max()),
            )

    def _chunk_metadata_reference(self, buffer: SampleBuffer, chunk_powers: np.ndarray,
                                  threshold: float, history: PeakHistory) -> List[ChunkMetadata]:
        cfg = self.config
        cs = cfg.chunk_samples
        nchunks = chunk_powers.size
        peak_lists: List[List[int]] = [[] for _ in range(nchunks)]
        starts = history.starts - buffer.start_sample
        ends = history.ends - buffer.start_sample
        first_chunk = np.maximum(starts // cs, 0)
        last_chunk = np.minimum((ends - 1) // cs, nchunks - 1)
        # reference implementation: the O(history x chunks) fill
        for k in range(len(history)):
            for ci in range(int(first_chunk[k]), int(last_chunk[k]) + 1):
                peak_lists[ci].append(k)
        active = chunk_powers > threshold
        chunks: List[ChunkMetadata] = []
        # reference implementation: per-chunk record construction loop
        for i in range(nchunks):
            c_start = buffer.start_sample + i * cs
            c_len = min(cs, buffer.end_sample - c_start)
            chunks.append(
                ChunkMetadata(
                    start_sample=c_start,
                    n_samples=int(c_len),
                    mean_power=float(chunk_powers[i]),
                    n_peaks=len(peak_lists[i]),
                    active=bool(active[i]),
                    peak_indices=peak_lists[i],
                    history=history,
                )
            )
        return chunks
