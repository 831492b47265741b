"""Tests for the Bluetooth slot-timing detector and its session cache."""

import numpy as np
import pytest

from repro.constants import BT_SLOT
from repro.core.detectors import BluetoothTimingDetector
from repro.core.metadata import PeakHistory
from repro.core.peak_detector import PeakDetectionResult

FS = 8e6
SLOT = int(BT_SLOT * FS)  # 5000 samples


def _detection(starts, length=2400):
    history = PeakHistory(FS)
    if np.isscalar(length):
        lengths = [length] * len(starts)
    else:
        lengths = length
    for start, plen in zip(starts, lengths):
        history.append(int(start), int(start) + int(plen), 1.0, 1.0)
    return PeakDetectionResult(
        history=history, noise_floor=1.0, threshold=2.5,
        total_samples=int(starts[-1]) + 10000 if len(starts) else 0,
    )


class TestSlotAlignment:
    def test_detects_slot_aligned_peaks(self):
        starts = [1000 + i * 6 * SLOT for i in range(5)]
        out = BluetoothTimingDetector().classify(_detection(starts), None)
        assert {c.peak.index for c in out} == {1, 2, 3, 4}

    def test_first_packet_of_session_missed(self):
        # the paper observes exactly this: the timing block misses the
        # first packet in each Bluetooth session
        starts = [1000 + i * 6 * SLOT for i in range(5)]
        out = BluetoothTimingDetector().classify(_detection(starts), None)
        assert 0 not in {c.peak.index for c in out}

    def test_non_aligned_rejected(self):
        starts = [1000, 1000 + int(3.3 * SLOT), 1000 + int(7.7 * SLOT)]
        out = BluetoothTimingDetector().classify(_detection(starts), None)
        assert out == []

    def test_tolerance(self):
        slack = int(20e-6 * FS)  # inside the 30 us tolerance
        starts = [1000, 1000 + 4 * SLOT + slack]
        out = BluetoothTimingDetector().classify(_detection(starts), None)
        assert len(out) == 1

    def test_long_peaks_ignored(self):
        # peaks longer than 5 slots cannot be Bluetooth
        starts = [1000, 1000 + 6 * SLOT]
        out = BluetoothTimingDetector().classify(
            _detection(starts, length=6 * SLOT), None
        )
        assert out == []

    def test_short_spikes_ignored(self):
        starts = [1000, 1000 + 2 * SLOT]
        out = BluetoothTimingDetector().classify(
            _detection(starts, length=100), None
        )
        assert out == []

    def test_max_slots_bound(self):
        det = BluetoothTimingDetector(max_slots=10)
        starts = [1000, 1000 + 20 * SLOT]
        assert det.classify(_detection(starts), None) == []


class TestCache:
    def _session_starts(self, n=20, stride=12):
        return [1000 + i * stride * SLOT for i in range(n)]

    def test_cache_hits_dominate_steady_state(self):
        det = BluetoothTimingDetector()
        det.classify(_detection(self._session_starts()), None)
        assert det.stats["cache_hits"] > det.stats["history_searches"]

    def test_cache_disabled_searches_history(self):
        det = BluetoothTimingDetector(use_cache=False)
        det.classify(_detection(self._session_starts()), None)
        assert det.stats["cache_hits"] == 0
        assert det.stats["history_searches"] == det.stats["probes"]

    def test_same_classifications_with_and_without_cache(self):
        starts = self._session_starts()
        with_cache = BluetoothTimingDetector().classify(_detection(starts), None)
        without = BluetoothTimingDetector(use_cache=False).classify(
            _detection(starts), None
        )
        assert {c.peak.index for c in with_cache} == {
            c.peak.index for c in without
        }

    def test_confidence_grows_with_session(self):
        out = BluetoothTimingDetector().classify(
            _detection(self._session_starts()), None
        )
        assert out[-1].confidence >= out[0].confidence

    def test_wifi_ping_multiple_of_slot_false_positive(self):
        # 20 ms ping interval = 32 x 625 us: the paper's observed false
        # positive. Our detector reproduces it by design.
        starts = [1000 + i * 32 * SLOT for i in range(4)]
        out = BluetoothTimingDetector().classify(_detection(starts), None)
        assert len(out) == 3
