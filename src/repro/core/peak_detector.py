"""Protocol-agnostic peak detection with integrated energy filtering.

Section 4.3: the energy filter is folded into the peak detector so that
timing information survives (chunks carry timestamps).  Per chunk, the
average energy of the trailing window decides whether the chunk is worth
examining; within active regions the start and end of each peak are
located precisely using the moving-average energy plus an instantaneous
magnitude threshold.

The implementation is fully vectorized numpy — the equivalent of the
paper's C++ GNU Radio block — and its measured cost per sample is what
Table 1's "Peak/Energy detection" rows (and the ``peak_detection`` /
``peak_detection_sparse`` ``rfbench`` microbenchmarks) reproduce.  The
gate has the two levels the paragraph above describes:

* **Coarse** (:func:`repro.dsp.energy.candidate_runs`): one read of the
  samples as float32 ``|x|^2`` sums over blocks of ``energy_window // 4``
  samples.  Powers are non-negative, so a sample can pass the averaged
  gate only if the blocks its window touches hold ``window * threshold``
  between them; blocks that stay under that by a 1e-4 margin (a hundred
  times the float32 rounding of the sums) are idle by construction.
  What is left are runs of samples worth examining — a few percent of a
  Bluetooth-only ether, a quarter of the Wi-Fi + Bluetooth mix.
* **Fine** (:func:`repro.dsp.energy.gate_runs`): float64 ``|x|^2`` over
  those runs, each with ``energy_window`` samples of context, locates
  each peak's edges: a burst's interior, where every power of a
  sample's averaging window clears the threshold by more than a running
  sum can round, is active by construction, and the moving-average gate
  (:func:`repro.dsp.energy.energy_gate`) runs only over the spans left
  in doubt — peak edges and dips, well under 5% of a busy window.

When the noise floor is not known yet (a one-shot buffer, a stream's
first window) it is certified from the coarse pass's block sums and a
few exactly recomputed chunks (:func:`repro.dsp.energy.certified_floor`);
a window it cannot certify forms the whole-window ``|x|^2`` as before,
and one whose samples are not finite, not C-contiguous complex64, or too
small for float32 is one run.  What is **bitwise** equal to the
whole-window gate: ``|x|^2``, the chunk powers, the noise floor and
threshold, and each peak's ``mean_power`` / ``peak_power`` (the same
values summed in the same order).  What is **peak-equal only**: the
moving average inside a doubtful span — its running sum starts at the
span instead of at sample 0, so it differs in the last bits, and the
comparison against the threshold could differ only for an average
within ~1e-9 relative of it (the same exposure every streaming window
size already has; no sweep has seen it).  The whole-array gate and the
pre-vectorization Python-loop kernels
are retained as ``impl="reference"`` so equivalence can be asserted (and
the speedup measured) against them — see ``repro.bench.equivalence`` and
``tests/test_coarse_gate.py``.
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
    RUN_MERGE_SAMPLES,
    block_sums,
    candidate_runs,
    certified_floor,
    chunk_average_of,
    chunked_power,
    floor_of,
    gate_runs,
    instant_power,
    interval_stats,
    moving_average_of,
    run_edges,
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
                 chunk_builder=None, nonfinite_samples: int = 0,
                 gated_samples: Optional[int] = None,
                 exact_samples: Optional[int] = None,
                 open_start: Optional[int] = None):
        self.history = history
        self.noise_floor = noise_floor
        self.threshold = threshold
        self.total_samples = total_samples
        #: NaN/Inf samples zeroed before gating (0 on a healthy window)
        self.nonfinite_samples = nonfinite_samples
        #: samples that reached the fine energy gate — the candidate runs
        #: of the coarse pass and their context; all of them by default
        self.gated_samples = (total_samples if gated_samples is None
                              else gated_samples)
        #: of those, the samples whose moving average was evaluated
        self.exact_samples = (self.gated_samples if exact_samples is None
                              else exact_samples)
        #: absolute start of the active samples still running into the
        #: buffer's end (gaps under ``min_gap`` apart, a peak or not yet
        #: one), or None when the buffer ends idle
        self.open_start = open_start
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
    default, the coarse-to-fine gate) or ``"reference"``, the whole-array
    gate and pre-vectorization Python-loop version kept for equivalence
    testing and as the benchmark baseline.  Both produce identical
    intervals, chunk metadata and dispatch decisions; the reference's
    per-peak means agree to ULP-level rounding.
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

    def detect(self, buffer: SampleBuffer, noise_floor: Optional[float] = None) -> PeakDetectionResult:
        """Find peaks and build chunk metadata for a buffer."""
        if self.impl == "reference":
            return self._detect_reference(buffer, noise_floor)
        cfg = self.config
        samples = buffer.samples
        n = len(samples)
        power = chunk_powers = None
        nonfinite = 0
        sums = block_sums(samples, cfg.energy_window)  # the coarse pass's read
        if noise_floor is None:
            noise_floor = certified_floor(samples, sums, cfg.energy_window,
                                          cfg.chunk_samples)
        if noise_floor is None:
            power, chunk_powers = chunked_power(samples, cfg.chunk_samples)
            nonfinite = self._zero_nonfinite(power, chunk_powers)
            noise_floor = floor_of(chunk_powers)
        threshold = noise_floor * float(db_to_linear(cfg.threshold_db))
        # samples that pass both the averaged gate and — so averaged tails
        # don't smear peak boundaries by a full window — an instantaneous
        # one at a fraction of the threshold
        instant_threshold = cfg.instantaneous_factor * threshold

        # coarse pass: which runs of samples are worth gating
        runs = None
        if sums is not None:
            # runs closer than the gate's context, or than a gap one
            # peak may span, must be one run
            runs = candidate_runs(samples, cfg.energy_window, threshold,
                                  max(RUN_MERGE_SAMPLES, cfg.energy_window,
                                      cfg.min_gap), sums)
            del sums  # dead now: not held while the fine pass squares
        if runs is None:
            if power is None:
                power, chunk_powers = chunked_power(samples, cfg.chunk_samples)
                nonfinite = self._zero_nonfinite(power, chunk_powers)
            runs = np.array([0]), np.array([n])

        # fine pass: the active runs, found from their edges
        fine = gate_runs(samples, power, *runs, cfg.energy_window, threshold,
                         instant_threshold)
        first, last = self._merge_runs(fine.starts, fine.ends)
        history = PeakHistory(buffer.sample_rate)
        if first.size:
            # a peak lies inside one run: the same shift maps both ends
            # into the powers, where its samples are contiguous
            starts, ends = fine.starts[first], fine.ends[last]
            _, means, maxes = interval_stats(
                fine.power, starts - fine.shift[first], ends - fine.shift[first])
            base = buffer.start_sample
            history.extend_from_arrays((starts + base).astype(np.int64),
                                       (ends + base).astype(np.int64), means, maxes)

        def chunk_builder():
            powers = chunk_powers
            if powers is None:  # floor carried: nothing needed them yet
                powers = chunked_power(samples, cfg.chunk_samples)[1]
            return self._chunk_metadata_vectorized(
                buffer, powers, threshold, history)

        self._count(history, n, fine.gated, noise_floor, fine.exact)
        return PeakDetectionResult(
            history=history,
            noise_floor=noise_floor,
            threshold=threshold,
            total_samples=n,
            chunk_builder=chunk_builder,
            nonfinite_samples=nonfinite,
            gated_samples=fine.gated,
            exact_samples=fine.exact,
            open_start=self._open_start(buffer, fine.starts, fine.ends),
        )

    def _detect_reference(self, buffer: SampleBuffer,
                          noise_floor: Optional[float]) -> PeakDetectionResult:
        """The whole-array gate and per-peak Python loops: the oracle."""
        cfg = self.config
        samples = buffer.samples
        power = instant_power(samples)
        chunk_powers = chunk_average_of(power, cfg.chunk_samples)
        nonfinite = self._zero_nonfinite(power, chunk_powers)
        if noise_floor is None:
            noise_floor = floor_of(chunk_powers)
        threshold = noise_floor * float(db_to_linear(cfg.threshold_db))
        active = moving_average_of(power, cfg.energy_window) > threshold
        active &= power > cfg.instantaneous_factor * threshold
        history = PeakHistory(buffer.sample_rate)
        self._fill_history_reference(history, buffer, power,
                                     self._intervals_reference(active))
        self._count(history, len(samples), len(samples), noise_floor, len(samples))
        return PeakDetectionResult(
            history=history,
            noise_floor=noise_floor,
            threshold=threshold,
            total_samples=len(samples),
            chunk_builder=lambda: self._chunk_metadata_reference(
                buffer, chunk_powers, threshold, history),
            nonfinite_samples=nonfinite,
            open_start=self._open_start(buffer, *self._run_edges(active)),
        )

    # -- shared ---------------------------------------------------------------

    def _count(self, history: PeakHistory, scanned: int, gated: int,
               noise_floor: float, exact: int) -> None:
        if not self.obs:
            return
        self.obs.counter(
            "rfdump_peaks_total", help="peaks found by the detection stage"
        ).inc(len(history))
        self.obs.counter(
            "rfdump_peak_scan_samples_total",
            help="samples scanned by the peak detector",
        ).inc(scanned)
        self.obs.counter(
            "rfdump_peak_gated_samples_total",
            help="samples that reached the fine energy gate (candidate "
                 "runs and their context) out of those scanned",
        ).inc(gated)
        self.obs.counter(
            "rfdump_peak_exact_samples_total",
            help="samples whose moving average the fine gate evaluated "
                 "(those not certainly active from their own powers)",
        ).inc(exact)
        self.obs.gauge(
            "rfdump_noise_floor_power",
            help="tracked noise-floor estimate (linear power)",
        ).set(noise_floor)

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

    _run_edges = staticmethod(run_edges)

    def _open_start(self, buffer: SampleBuffer, starts: np.ndarray,
                    ends: np.ndarray) -> Optional[int]:
        """Where the group of active runs reaching the buffer's last
        ``min_gap`` samples begins: a later sample could still join it.
        The gate is causal, so every run before that is final."""
        n = len(buffer)
        if ends.size == 0 or ends[-1] <= n - self.config.min_gap:
            return None
        apart = np.flatnonzero(starts[1:] - ends[:-1] >= self.config.min_gap)
        first = int(apart[-1]) + 1 if apart.size else 0
        return buffer.start_sample + int(starts[first])

    # -- vectorized kernels ---------------------------------------------------

    def _merge_runs(self, starts: np.ndarray,
                    ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gap-merge and length-filter sorted, disjoint active runs.

        Runs separated by less than ``min_gap`` coalesce: a boolean break
        mask over the inter-run gaps selects each merged group's first
        and last run — no per-run Python iteration.  Returns the indices
        of those runs: peak ``k`` is ``[starts[first[k]], ends[last[k]])``.
        """
        cfg = self.config
        if starts.size == 0:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        # the gap before run i is starts[i] - ends[i-1]; a True marks the
        # start of a new group
        breaks = (starts[1:] - ends[:-1]) >= cfg.min_gap
        first = np.flatnonzero(np.concatenate([[True], breaks]))
        last = np.flatnonzero(np.concatenate([breaks, [True]]))
        keep = (ends[last] - starts[first]) >= cfg.min_length
        return first[keep], last[keep]

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
