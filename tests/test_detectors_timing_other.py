"""Tests for the ZigBee and microwave timing detectors."""

import numpy as np
import pytest

from repro.constants import (
    MICROWAVE_AC_PERIOD_60HZ,
    ZIGBEE_BACKOFF_PERIOD,
    ZIGBEE_LIFS,
    ZIGBEE_T_ACK,
)
from repro.core.detectors import MicrowaveTimingDetector, ZigbeeTimingDetector
from repro.core.metadata import PeakHistory
from repro.core.peak_detector import PeakDetectionResult

FS = 8e6


def _detection(entries):
    """entries: list of (start_sample, length, mean_power)."""
    history = PeakHistory(FS)
    for start, length, power in entries:
        history.append(int(start), int(start + length), power, power)
    return PeakDetectionResult(
        history=history, noise_floor=1.0, threshold=2.5,
        total_samples=int(entries[-1][0] + entries[-1][1]) + 1000 if entries else 0,
    )


def _gap_pair(gap_seconds, length=3000):
    first_end = 1000 + length
    second_start = first_end + int(gap_seconds * FS)
    return _detection([(1000, length, 10.0), (second_start, length, 10.0)])


class TestZigbee:
    def test_t_ack_gap(self):
        out = ZigbeeTimingDetector().classify(_gap_pair(ZIGBEE_T_ACK), None)
        assert len(out) == 2
        assert out[0].info["pattern"] in ("tACK", "SIFS")

    def test_lifs_gap(self):
        out = ZigbeeTimingDetector().classify(_gap_pair(ZIGBEE_LIFS), None)
        assert len(out) == 2

    def test_backoff_multiples(self):
        out = ZigbeeTimingDetector().classify(
            _gap_pair(3 * ZIGBEE_BACKOFF_PERIOD), None
        )
        assert len(out) == 2
        assert "backoff" in out[0].info["pattern"]

    def test_unrelated_gap_rejected(self):
        out = ZigbeeTimingDetector().classify(_gap_pair(777e-6), None)
        assert out == []

    def test_max_backoffs_bound(self):
        det = ZigbeeTimingDetector(max_backoffs=4)
        out = det.classify(_gap_pair(6 * ZIGBEE_BACKOFF_PERIOD), None)
        assert out == []

    def test_empty_history(self):
        out = ZigbeeTimingDetector().classify(_detection([]), None)
        assert out == []


class TestMicrowave:
    def _bursts(self, n=4, period=MICROWAVE_AC_PERIOD_60HZ, power=10.0,
                duration=8e-3):
        length = int(duration * FS)
        return _detection(
            [(1000 + int(i * period * FS), length, power) for i in range(n)]
        )

    def test_detects_ac_periodicity(self):
        out = MicrowaveTimingDetector().classify(self._bursts(), None)
        assert {c.peak.index for c in out} == {0, 1, 2, 3}
        assert out[0].info["ac_hz"] == 60

    def test_50hz_also_detected(self):
        out = MicrowaveTimingDetector().classify(
            self._bursts(period=0.02), None
        )
        assert len(out) == 4
        assert out[0].info["ac_hz"] == 50

    def test_short_peaks_ignored(self):
        out = MicrowaveTimingDetector().classify(
            self._bursts(duration=1e-3), None
        )
        assert out == []

    def test_wrong_period_rejected(self):
        out = MicrowaveTimingDetector().classify(
            self._bursts(period=0.012), None
        )
        assert out == []

    def test_varying_power_rejected(self):
        # constant-envelope check: alternate strong and weak long bursts
        period = MICROWAVE_AC_PERIOD_60HZ
        length = int(8e-3 * FS)
        entries = [
            (1000 + int(i * period * FS), length, 10.0 if i % 2 else 40.0)
            for i in range(4)
        ]
        out = MicrowaveTimingDetector().classify(_detection(entries), None)
        assert out == []

    def test_bluetooth_not_matched(self):
        # 625 us slots are far from the AC period
        out = MicrowaveTimingDetector().classify(
            self._bursts(period=625e-6, duration=2.8e-3), None
        )
        assert out == []
