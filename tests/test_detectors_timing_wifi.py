"""Tests for the 802.11 SIFS / DIFS timing detectors.

Timing detectors consume only the peak history, so these tests build
synthetic histories directly — no samples involved.
"""

import numpy as np
import pytest

from repro.constants import WIFI_DIFS, WIFI_SIFS, WIFI_SLOT_TIME
from repro.core.detectors import WifiDifsTimingDetector, WifiSifsTimingDetector
from repro.core.metadata import PeakHistory
from repro.core.peak_detector import PeakDetectionResult

FS = 8e6


def _detection(gaps_us, first_start=1000, lengths=4000):
    """History of peaks separated by the given gaps (microseconds)."""
    history = PeakHistory(FS)
    start = first_start
    if np.isscalar(lengths):
        lengths = [lengths] * (len(gaps_us) + 1)
    for i, length in enumerate(lengths):
        history.append(start, start + length, 1.0, 1.0)
        if i < len(gaps_us):
            start = start + length + int(gaps_us[i] * 1e-6 * FS)
    return PeakDetectionResult(
        history=history, noise_floor=1.0, threshold=2.5,
        total_samples=start + lengths[-1] + 1000,
    )


class TestSifs:
    def test_detects_sifs_pair(self):
        result = _detection([10.0])
        out = WifiSifsTimingDetector().classify(result, None)
        assert {c.peak.index for c in out} == {0, 1}
        assert all(c.protocol == "wifi" for c in out)

    def test_tolerance_window(self):
        for gap, expected in [(8.0, 2), (12.9, 2), (14.0, 0), (5.0, 0)]:
            out = WifiSifsTimingDetector().classify(_detection([gap]), None)
            assert len(out) == expected, gap

    def test_confidence_higher_for_exact_gap(self):
        exact = WifiSifsTimingDetector().classify(_detection([10.0]), None)
        off = WifiSifsTimingDetector().classify(_detection([12.0]), None)
        assert exact[0].confidence > off[0].confidence

    def test_chain_of_exchanges(self):
        # data-SIFS-ack ... data-SIFS-ack: all four peaks classified
        out = WifiSifsTimingDetector().classify(
            _detection([10.0, 300.0, 10.0]), None
        )
        assert {c.peak.index for c in out} == {0, 1, 2, 3}

    def test_no_peaks(self):
        out = WifiSifsTimingDetector().classify(_detection([]), None)
        assert out == []

    def test_dedup_single_classification_per_peak(self):
        out = WifiSifsTimingDetector().classify(_detection([10.0, 10.0]), None)
        indices = [c.peak.index for c in out]
        assert len(indices) == len(set(indices))


class TestDifs:
    def test_detects_difs_only(self):
        out = WifiDifsTimingDetector().classify(_detection([50.0]), None)
        assert {c.peak.index for c in out} == {0, 1}
        assert out[0].info["k"] == 0

    def test_detects_difs_plus_slots(self):
        gap_us = (WIFI_DIFS + 7 * WIFI_SLOT_TIME) * 1e6
        out = WifiDifsTimingDetector().classify(_detection([gap_us]), None)
        assert len(out) == 2
        assert out[0].info["k"] == 7

    def test_cw_bound_respected(self):
        gap_us = (WIFI_DIFS + 65 * WIFI_SLOT_TIME) * 1e6
        out = WifiDifsTimingDetector().classify(_detection([gap_us]), None)
        assert out == []

    def test_sifs_not_matched_by_difs(self):
        out = WifiDifsTimingDetector().classify(_detection([10.0]), None)
        assert out == []

    def test_between_slots_rejected(self):
        gap_us = (WIFI_DIFS + 0.5 * WIFI_SLOT_TIME) * 1e6
        out = WifiDifsTimingDetector().classify(_detection([gap_us]), None)
        assert out == []

    def test_flood_detects_all(self):
        rng = np.random.default_rng(0)
        gaps = [
            (WIFI_DIFS + int(k) * WIFI_SLOT_TIME) * 1e6
            for k in rng.integers(0, 64, size=20)
        ]
        out = WifiDifsTimingDetector().classify(_detection(gaps), None)
        assert {c.peak.index for c in out} == set(range(21))
