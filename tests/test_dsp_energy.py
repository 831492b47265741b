"""Tests for repro.dsp.energy."""

import numpy as np
import pytest

from repro.core.peak_detector import PeakDetector
from repro.dsp.energy import (
    chunk_average_power,
    floor_of,
    moving_average_power,
)
from repro.dsp.samples import SampleBuffer


class TestMovingAverage:
    def test_constant_signal(self):
        x = 2.0 * np.ones(100, dtype=np.complex64)
        out = moving_average_power(x, 10)
        assert np.allclose(out, 4.0)

    def test_length_preserved(self):
        out = moving_average_power(np.ones(57, dtype=np.complex64), 20)
        assert out.size == 57

    def test_step_response(self):
        x = np.concatenate([np.zeros(50), np.ones(50)]).astype(np.complex64)
        out = moving_average_power(x, 10)
        assert out[49] == pytest.approx(0.0)
        assert out[59] == pytest.approx(1.0)
        assert 0 < out[54] < 1

    def test_prefix_uses_available_samples(self):
        x = np.ones(5, dtype=np.complex64)
        out = moving_average_power(x, 20)
        assert np.allclose(out, 1.0)

    def test_empty_input(self):
        assert moving_average_power(np.zeros(0, dtype=np.complex64), 10).size == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average_power(np.ones(10), 0)

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        window = 16
        out = moving_average_power(x, window)
        power = np.abs(x) ** 2
        naive = np.array(
            [power[max(0, i - window + 1) : i + 1].mean() for i in range(200)]
        )
        assert np.allclose(out, naive)


class TestChunkAverage:
    def test_exact_chunks(self):
        x = np.ones(400, dtype=np.complex64)
        assert chunk_average_power(x, 200).size == 2

    def test_tail_partial_chunk(self):
        x = np.ones(450, dtype=np.complex64)
        out = chunk_average_power(x, 200)
        assert out.size == 3
        assert out[-1] == pytest.approx(1.0)

    def test_values(self):
        x = np.concatenate([np.zeros(200), 2 * np.ones(200)]).astype(np.complex64)
        out = chunk_average_power(x, 200)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(4.0)

    def test_empty(self):
        assert chunk_average_power(np.zeros(0, dtype=np.complex64), 200).size == 0


class TestNoiseFloor:
    def test_idle_trace_floor_is_noise_power(self, rng):
        noise = (rng.normal(size=20000) + 1j * rng.normal(size=20000)) / np.sqrt(2)
        floor = floor_of(chunk_average_power(noise.astype(np.complex64), 200))
        assert floor == pytest.approx(1.0, rel=0.15)

    def test_busy_trace_floor_ignores_signal(self, rng):
        noise = (rng.normal(size=40000) + 1j * rng.normal(size=40000)) / np.sqrt(2)
        trace = noise.astype(np.complex64)
        trace[8000:24000] += 10.0  # a strong long transmission
        floor = floor_of(chunk_average_power(trace, 200))
        assert floor < 2.0

    def test_a_nan_chunk_is_left_out_everywhere(self, rng):
        """One floor rule: every caller takes the percentile over the
        finite chunks only (the one-shot estimate once did not)."""
        noise = (rng.normal(size=40000) + 1j * rng.normal(size=40000)) / np.sqrt(2)
        trace = noise.astype(np.complex64)
        trace[1234] = np.nan
        powers = chunk_average_power(trace, 200)
        want = float(np.percentile(np.delete(powers, 1234 // 200), 10.0))
        assert floor_of(powers) == want
        assert PeakDetector().detect(SampleBuffer.from_array(trace, 8e6)).noise_floor == want

    def test_no_finite_chunk_stays_non_finite(self):
        assert np.isnan(floor_of(np.array([np.nan, np.inf])))
        with pytest.raises(ValueError):
            floor_of(np.zeros(0))
