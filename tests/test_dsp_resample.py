"""Tests for repro.dsp.resample (the 11:8 fractional machinery)."""

import numpy as np
import pytest

from repro.dsp.resample import fractional_indices, sample_held


class TestFractionalIndices:
    def test_unity_rate(self):
        idx = fractional_indices(5, 1.0, 1.0)
        assert idx.tolist() == [0, 1, 2, 3, 4]

    def test_11_to_8_pattern(self):
        # the USRP's chips-per-sample pattern: floor(n * 11/8)
        idx = fractional_indices(8, 11e6, 8e6)
        assert idx.tolist() == [0, 1, 2, 4, 5, 6, 8, 9]

    def test_phase_shifts_pattern(self):
        base = fractional_indices(8, 11e6, 8e6, phase=0.0)
        shifted = fractional_indices(8, 11e6, 8e6, phase=1.0)
        assert (shifted == base + 1).all()

    def test_empty(self):
        assert fractional_indices(0, 11e6, 8e6).size == 0

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            fractional_indices(10, 0.0, 8e6)
        with pytest.raises(ValueError):
            fractional_indices(-1, 1.0, 1.0)


class TestSampleHeld:
    def test_holds_values(self):
        values = np.array([1.0, 2.0, 3.0])
        out = sample_held(values, 6, 1.0, 2.0)
        assert out.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]

    def test_clamps_past_end(self):
        values = np.array([1.0, 2.0])
        out = sample_held(values, 5, 1.0, 1.0)
        assert out.tolist() == [1.0, 2.0, 2.0, 2.0, 2.0]

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            sample_held(np.zeros(0), 5, 1.0, 1.0)

    def test_chip_duration_statistics(self):
        # sampling an 11 Mchip stream at 8 Msps: each chip is seen by 0, 1
        # or 2 samples, averaging 8/11
        chips = np.arange(110)
        out = sample_held(chips, 80, 11e6, 8e6)
        counts = np.bincount(out.astype(int), minlength=110)
        assert counts.max() <= 2
        assert counts[:109].mean() == pytest.approx(8 / 11, abs=0.05)
