"""Tests for repro.analysis.stats."""

import numpy as np
import pytest

from repro.analysis.stats import (
    false_positive_sample_rate,
    match_detections,
    packet_miss_rate,
)
from repro.emulator.groundtruth import GroundTruth, Transmission
from repro.util.timebase import Timebase

FS = 8e6


def _truth(intervals, protocol="wifi", duration=1.0):
    txs = [
        Transmission(start_time=s, end_time=e, protocol=protocol,
                     source="n", kind="data")
        for s, e in intervals
    ]
    return GroundTruth(txs, Timebase(FS), duration)


def _detections(intervals):
    """Plain (start_sample, end_sample) tuples."""
    return [(int(s * FS), int(e * FS)) for s, e in intervals]


class TestMatching:
    def test_perfect_match(self):
        truth = _truth([(0.01, 0.02), (0.05, 0.06)])
        result = match_detections(truth, _detections([(0.01, 0.02), (0.05, 0.06)]))
        assert result.miss_rate == 0.0
        assert result.extra_detections == 0

    def test_missed_packet(self):
        truth = _truth([(0.01, 0.02), (0.05, 0.06)])
        result = match_detections(truth, _detections([(0.01, 0.02)]))
        assert result.miss_rate == 0.5
        assert len(result.missed) == 1

    def test_partial_overlap_counts(self):
        truth = _truth([(0.01, 0.02)])
        result = match_detections(truth, _detections([(0.014, 0.024)]))
        assert result.miss_rate == 0.0

    def test_tiny_overlap_does_not_count(self):
        truth = _truth([(0.01, 0.02)])
        result = match_detections(truth, _detections([(0.0195, 0.03)]))
        assert result.miss_rate == 1.0

    def test_extra_detection_counted(self):
        truth = _truth([(0.01, 0.02)])
        result = match_detections(
            truth, _detections([(0.01, 0.02), (0.5, 0.51)])
        )
        assert result.extra_detections == 1

    def test_protocol_filter(self):
        truth = GroundTruth(
            [
                Transmission(0.01, 0.02, "wifi", "n", "data"),
                Transmission(0.05, 0.06, "bluetooth", "n", "data"),
            ],
            Timebase(FS), 1.0,
        )
        assert packet_miss_rate(truth, _detections([(0.01, 0.02)]), "wifi") == 0.0
        assert packet_miss_rate(truth, _detections([(0.01, 0.02)]), "bluetooth") == 1.0

    def test_unobservable_not_scored(self):
        txs = [Transmission(0.01, 0.02, "bluetooth", "n", "data", observable=False)]
        truth = GroundTruth(txs, Timebase(FS), 1.0)
        assert packet_miss_rate(truth, []) == 0.0

    def test_accepts_packet_records(self):
        from repro.analysis.decoders import PacketRecord

        truth = _truth([(0.01, 0.02)])
        rec = PacketRecord("wifi", int(0.01 * FS), int(0.02 * FS), True, "d")
        assert packet_miss_rate(truth, [rec]) == 0.0

    def test_accepts_classifications(self):
        from repro.core.detectors.base import Classification
        from repro.core.metadata import Peak

        truth = _truth([(0.01, 0.02)])
        cls = Classification(
            Peak(int(0.01 * FS), int(0.02 * FS), 1.0, 1.0), "wifi", "t", 0.9
        )
        assert packet_miss_rate(truth, [cls]) == 0.0


class TestFalsePositive:
    def test_no_forwarding_zero(self):
        truth = _truth([(0.01, 0.02)], duration=0.1)
        assert false_positive_sample_rate(truth, [], 800000) == 0.0

    def test_useful_samples_not_false_positive(self):
        truth = _truth([(0.0, 0.05)], duration=0.1)
        fp = false_positive_sample_rate(truth, [(0, 400000)], 800000)
        assert fp == 0.0

    def test_useless_forwarding_counted(self):
        truth = _truth([], duration=0.1)
        fp = false_positive_sample_rate(truth, [(0, 80000)], 800000)
        assert fp == pytest.approx(0.1)

    def test_mixed(self):
        truth = _truth([(0.0, 0.05)], duration=0.1)
        # forward the transmission plus 40000 extra samples
        fp = false_positive_sample_rate(truth, [(0, 440000)], 800000)
        assert fp == pytest.approx(0.05)
