"""Tests for repro.dsp.samples."""

import numpy as np
import pytest

from repro.dsp.samples import SampleBuffer
from repro.util.timebase import Timebase


def _buffer(n=1000, fs=8e6, start=0):
    return SampleBuffer(np.arange(n).astype(np.complex64), Timebase(fs), start)


class TestSampleBuffer:
    def test_coerces_dtype(self):
        buf = SampleBuffer(np.ones(10, dtype=np.float64), Timebase(8e6))
        assert buf.samples.dtype == np.complex64

    def test_len_and_duration(self):
        buf = _buffer(800)
        assert len(buf) == 800
        assert buf.duration == pytest.approx(1e-4)

    def test_end_sample(self):
        buf = _buffer(100, start=50)
        assert buf.end_sample == 150

    def test_slice_absolute_indices(self):
        buf = _buffer(100, start=50)
        sub = buf.slice(60, 70)
        assert sub.start_sample == 60
        assert len(sub) == 10
        assert sub.samples[0] == 10  # original index 10

    def test_slice_clamps_to_bounds(self):
        buf = _buffer(100, start=0)
        sub = buf.slice(-10, 1000)
        assert sub.start_sample == 0
        assert len(sub) == 100

    def test_slice_empty_when_inverted(self):
        buf = _buffer(100)
        assert len(buf.slice(80, 20)) == 0

    def test_time_of(self):
        buf = _buffer(100, fs=1e6, start=100)
        assert buf.time_of(0) == pytest.approx(1e-4)

    def test_from_array(self):
        buf = SampleBuffer.from_array(np.zeros(10), sample_rate=2e6)
        assert buf.sample_rate == 2e6
