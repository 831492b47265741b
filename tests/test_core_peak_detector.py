"""Tests for repro.core.peak_detector."""

import numpy as np
import pytest

from repro.core.peak_detector import PeakDetector, PeakDetectorConfig
from repro.dsp.samples import SampleBuffer
from repro.util.timebase import Timebase


def _trace(bursts, n=40000, noise=1.0, seed=0, amp=10.0):
    """Noise trace with rectangular bursts at given (start, end) samples."""
    rng = np.random.default_rng(seed)
    x = np.sqrt(noise / 2) * (
        rng.normal(size=n) + 1j * rng.normal(size=n)
    )
    for start, end in bursts:
        x[start:end] += amp
    return SampleBuffer(x.astype(np.complex64), Timebase(8e6))


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = PeakDetectorConfig()
        assert cfg.chunk_samples == 200  # 25 us
        assert cfg.energy_window == 20  # 2.5 us
        assert cfg.threshold_db == 4.0

    def test_rejects_window_larger_than_chunk(self):
        with pytest.raises(ValueError):
            PeakDetectorConfig(chunk_samples=10, energy_window=20)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PeakDetectorConfig(chunk_samples=0)


class TestDetection:
    def test_finds_single_burst(self):
        buf = _trace([(10000, 14000)])
        result = PeakDetector().detect(buf)
        assert len(result.history) == 1
        peak = result.history[0]
        assert abs(peak.start_sample - 10000) < 40
        assert abs(peak.end_sample - 14000) < 40

    def test_finds_multiple_bursts(self):
        buf = _trace([(5000, 7000), (15000, 16000), (30000, 33000)])
        result = PeakDetector().detect(buf)
        assert len(result.history) == 3

    def test_idle_trace_no_peaks(self):
        buf = _trace([])
        result = PeakDetector().detect(buf)
        assert len(result.history) == 0

    def test_noise_floor_estimate(self):
        buf = _trace([(5000, 9000)], noise=2.0)
        result = PeakDetector().detect(buf)
        assert result.noise_floor == pytest.approx(2.0, rel=0.2)

    def test_explicit_noise_floor_used(self):
        buf = _trace([(5000, 9000)])
        result = PeakDetector().detect(buf, noise_floor=0.5)
        assert result.noise_floor == 0.5

    def test_short_gap_does_not_split(self):
        # a 15-sample dropout inside a burst must not split the peak
        buf = _trace([(10000, 12000), (12015, 14000)])
        result = PeakDetector().detect(buf)
        assert len(result.history) == 1

    def test_long_gap_splits(self):
        buf = _trace([(10000, 12000), (12200, 14000)])
        result = PeakDetector().detect(buf)
        assert len(result.history) == 2

    def test_noise_spike_rejected(self):
        buf = _trace([(10000, 10008)])  # 1 us spike < min_length
        result = PeakDetector().detect(buf)
        assert len(result.history) == 0

    def test_peak_powers(self):
        buf = _trace([(10000, 14000)], amp=10.0)
        peak = PeakDetector().detect(buf).history[0]
        assert peak.mean_power == pytest.approx(100.0, rel=0.15)
        assert peak.peak_power >= peak.mean_power

    def test_weak_burst_below_threshold_missed(self):
        # 4 dB threshold: a burst at -3 dB SNR must be invisible
        buf = _trace([(10000, 14000)], amp=np.sqrt(0.5))
        result = PeakDetector().detect(buf, noise_floor=1.0)
        assert len(result.history) == 0

    def test_marginal_burst_fragments_not_full_peak(self):
        # right at the threshold, the detector may emit fragments but must
        # not report the burst as one contiguous peak
        buf = _trace([(10000, 14000)], amp=np.sqrt(1.26))
        result = PeakDetector().detect(buf, noise_floor=1.0)
        assert all(p.length < 2000 for p in result.history)

    def test_absolute_sample_indexing(self):
        buf = _trace([(10000, 12000)])
        shifted = SampleBuffer(buf.samples, buf.timebase, start_sample=50000)
        result = PeakDetector().detect(shifted)
        assert abs(result.history[0].start_sample - 60000) < 40


class TestChunkMetadata:
    def test_chunk_count(self):
        buf = _trace([], n=4000)
        result = PeakDetector().detect(buf)
        assert len(result.chunks) == 20

    def test_active_chunks_flagged(self):
        buf = _trace([(2000, 2600)], n=4000)
        result = PeakDetector().detect(buf)
        active = [c.active for c in result.chunks]
        assert active[10] and active[12]
        assert not active[0]

    def test_peak_indices_attached(self):
        buf = _trace([(2000, 2600)], n=4000)
        result = PeakDetector().detect(buf)
        assert result.chunks[10].peak_indices == [0]
        assert result.chunks[0].peak_indices == []
        assert result.chunks[10].history is result.history

    def test_peak_spanning_chunks(self):
        buf = _trace([(1000, 3000)], n=4000)
        result = PeakDetector().detect(buf)
        covered = [c for c in result.chunks if c.n_peaks > 0]
        # chunks 5..14, plus possibly one more from the averaging tail
        assert 10 <= len(covered) <= 11


class TestRunEdges:
    @staticmethod
    def _by_diff(active):
        """The textbook form: +1/-1 steps of the mask as int8."""
        edges = np.diff(active.astype(np.int8))
        starts = np.flatnonzero(edges == 1) + 1
        ends = np.flatnonzero(edges == -1) + 1
        if active.size and active[0]:
            starts = np.concatenate([[0], starts])
        if active.size and active[-1]:
            ends = np.concatenate([ends, [active.size]])
        return starts, ends

    @pytest.mark.parametrize("mask", [
        [], [False], [True], [True, True], [False, True], [True, False],
        [False, True, True, False, True], [True, False, False, True],
    ])
    def test_small_masks(self, mask):
        active = np.array(mask, dtype=bool)
        starts, ends = PeakDetector._run_edges(active)
        want_starts, want_ends = self._by_diff(active)
        assert starts.tolist() == want_starts.tolist()
        assert ends.tolist() == want_ends.tolist()

    def test_random_masks(self):
        rng = np.random.default_rng(4)
        for density in (0.02, 0.5, 0.98):
            active = rng.random(10_000) < density
            starts, ends = PeakDetector._run_edges(active)
            want_starts, want_ends = self._by_diff(active)
            assert np.array_equal(starts, want_starts)
            assert np.array_equal(ends, want_ends)
