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
within ~1e-9 relative of it (no sweep has seen it).  A stream is gated
window by window from a :class:`GateState` each window hands the next
(the moving average's last powers, the group of runs still open), with
the same peaks as one pass.  The whole-array gate and the
pre-vectorization Python-loop kernels
are retained as ``impl="reference"`` so equivalence can be asserted (and
the speedup measured) against them — see ``repro.bench.equivalence`` and
``tests/test_coarse_gate.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, eq=False)
class GateState:
    """Where a stream's energy gate stands between two windows:
    :meth:`PeakDetector.detect` takes one and returns the next, so a
    stream is gated as one pass would gate it, however it is cut."""

    #: the next sample to gate
    at: int
    #: powers before ``at`` the gate still reads: the moving average's
    #: last ``energy_window - 1`` and those since the open group's end
    tail: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: the group of active runs that may still grow, ``(start, end of its
    #: last run, power sum, peak power)``; None when idle at ``at``
    open: Optional[Tuple[int, int, float, float]] = None


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
                 gate: Optional[GateState] = None):
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
        #: the gate state at the buffer's end (None from the reference)
        self.gate = gate
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
    def open_start(self) -> Optional[int]:
        """Start of the group still open at the buffer's end, or None."""
        return self.gate.open[0] if self.gate and self.gate.open else None

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

    def detect(self, buffer: SampleBuffer, noise_floor: Optional[float] = None,
               gate: Optional[GateState] = None) -> PeakDetectionResult:
        """Find peaks and build chunk metadata for a buffer.

        ``gate`` is the state a stream's previous window left: the
        samples of ``buffer`` before ``gate.at`` were gated then, so only
        the rest are, continuing its moving average and open group.
        Without one the stream starts at the buffer's first sample.  The
        history holds every group that ends in the samples gated now or
        continues the open one, the group still open at the end included.
        """
        if self.impl == "reference":
            return self._detect_reference(buffer, noise_floor, gate)
        cfg = self.config
        w = cfg.energy_window
        gate = gate or GateState(buffer.start_sample)
        skip = gate.at - buffer.start_sample
        samples = buffer.samples[skip:]
        n = len(samples)
        if noise_floor is None and skip:  # not frozen yet: the whole window's
            noise_floor = floor_of(chunked_power(buffer.samples,
                                                 cfg.chunk_samples)[1])
        power = chunk_powers = None
        nonfinite = 0
        sums = block_sums(samples, w)  # the coarse pass's read
        if noise_floor is None:
            noise_floor = certified_floor(samples, sums, w, cfg.chunk_samples)
        if noise_floor is None:
            power, chunk_powers = chunked_power(samples, cfg.chunk_samples)
            nonfinite = self._zero_nonfinite(power, chunk_powers)
            noise_floor = floor_of(chunk_powers)
        threshold = noise_floor * float(db_to_linear(cfg.threshold_db))
        # samples that pass both the averaged gate and — so averaged tails
        # don't smear peak boundaries by a full window — an instantaneous
        # one at a fraction of the threshold
        instant_threshold = cfg.instantaneous_factor * threshold
        # the powers the first samples' averaging windows reach back to
        context = gate.tail[max(gate.tail.size - (w - 1), 0):]

        # coarse pass: which runs of samples are worth gating
        runs = None
        if sums is not None:
            # runs closer than the gate's context, or than a gap one
            # peak may span, must be one run
            runs = candidate_runs(
                samples, w, threshold, max(RUN_MERGE_SAMPLES, w, cfg.min_gap),
                sums, context.sum() if context.size == w - 1 else None)
            del sums  # dead now: not held while the fine pass squares
        if runs is None:
            if power is None:
                power, chunk_powers = chunked_power(samples, cfg.chunk_samples)
                nonfinite = self._zero_nonfinite(power, chunk_powers)
            runs = np.array([0]), np.array([n])

        # fine pass: the active runs, found from their edges, grouped
        # after the open group the gate holds (a pseudo-run before 0)
        fine = gate_runs(samples, power, *runs, w, threshold,
                         instant_threshold, context)
        starts, ends = fine.starts, fine.ends
        held = int(gate.open is not None)
        if gate.open is not None:
            starts = np.insert(starts, 0, gate.open[0] - gate.at)
            ends = np.insert(ends, 0, gate.open[1] - gate.at)
        first, last = self._merge_runs(starts, ends)
        starts, ends = starts[first], ends[last]
        sums, maxes = np.zeros(first.size), np.zeros(first.size)
        if first.size > held:
            # a group lies inside one run: the same shift maps both ends
            # into the powers, where its samples are contiguous
            shift = fine.shift[first[held:] - held]
            sums[held:], _, maxes[held:] = interval_stats(
                fine.power, starts[held:] - shift, ends[held:] - shift)
        if gate.open is not None:
            sums[0], maxes[0] = self._continued(buffer, gate, gate.open,
                                                gate.at + int(ends[0]))
        keep = ends - starts >= cfg.min_length
        history = PeakHistory(buffer.sample_rate)
        history.extend_from_arrays(
            starts[keep] + gate.at, ends[keep] + gate.at,
            sums[keep] / (ends - starts)[keep], maxes[keep])
        # the state the next window continues: the tail its gate reads
        # (and the open group's trailing gap), and the group still open
        still = first.size and ends[-1] > n - cfg.min_gap
        need = max(w - 1, n - int(ends[-1]) if still else 0)
        tail = np.concatenate([gate.tail,
                               self._powers(samples[max(n - need, 0):])])
        state = GateState(buffer.end_sample, tail[max(tail.size - need, 0):],
                          (gate.at + int(starts[-1]), gate.at + int(ends[-1]),
                           float(sums[-1]), float(maxes[-1])) if still else None)

        def chunk_builder():
            powers = chunk_powers
            if powers is None or skip:  # floor carried: nothing needed them yet
                powers = chunked_power(buffer.samples, cfg.chunk_samples)[1]
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
            gate=state,
        )

    @staticmethod
    def _powers(samples: np.ndarray) -> np.ndarray:
        """``|x|^2``, bitwise the gate's, a NaN/Inf one zeroed as it is."""
        power = instant_power(samples)
        power[~np.isfinite(power)] = 0.0
        return power

    def _continued(self, buffer: SampleBuffer, gate: GateState,
                   group: Tuple[int, int, float, float],
                   end: int) -> Tuple[float, float]:
        """Power sum and maximum of ``gate``'s open ``group``, ended at
        ``end``: one reduce over its samples, as one pass makes it, when
        the buffer holds them; else (a group longer than a seam carries)
        the state's sum plus one over what followed it."""
        start, last, total, top = group
        if start < buffer.start_sample:
            if end > last:  # the gap the tail holds, then what followed
                rest = np.concatenate([
                    gate.tail[gate.tail.size - gate.at + last:],
                    self._powers(buffer.slice(gate.at, end).samples)])
                total, top = total + rest.sum(), max(top, rest.max())
            return total, top
        sums, _, maxes = interval_stats(
            self._powers(buffer.slice(start, end).samples),
            np.array([0]), np.array([end - start]))
        return sums[0], maxes[0]

    def _detect_reference(self, buffer: SampleBuffer,
                          noise_floor: Optional[float],
                          gate: Optional[GateState]) -> PeakDetectionResult:
        """The whole-array gate and per-peak Python loops: the oracle,
        over one whole buffer (a stream of one window)."""
        if gate and (gate.at != buffer.start_sample or gate.tail.size):
            raise ValueError("the reference gate runs over one whole buffer")
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

    # -- vectorized kernels ---------------------------------------------------

    def _merge_runs(self, starts: np.ndarray,
                    ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gap-merge sorted, disjoint active runs.

        Runs separated by less than ``min_gap`` coalesce: a boolean break
        mask over the inter-run gaps selects each merged group's first
        and last run — no per-run Python iteration.  Returns the indices
        of those runs: group ``k`` is ``[starts[first[k]], ends[last[k]])``.
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
        return first, last

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
