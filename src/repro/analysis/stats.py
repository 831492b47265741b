"""Accuracy scoring against emulator ground truth (Section 5.1).

The key metric is the *packet miss rate* — the fraction of ground-truth
packets not found by the detection modules — and the secondary metric is
the *false positive rate* — the fraction of non-useful samples forwarded
to the demodulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.emulator.groundtruth import GroundTruth, Transmission


@dataclass
class MatchResult:
    """Ground-truth transmissions split into found / missed."""

    found: List[Transmission]
    missed: List[Transmission]
    extra_detections: int

    @property
    def miss_rate(self) -> float:
        total = len(self.found) + len(self.missed)
        return len(self.missed) / total if total else 0.0


def _intervals_from(detections: Iterable, sample_rate: float) -> List[Tuple[float, float]]:
    """Normalize detections to (start_time, end_time) seconds.

    Accepts Classification objects (peak attribute), PacketRecord objects
    (start/end samples), Peak objects, or plain (start, end) sample tuples.
    """
    out = []
    for det in detections:
        peak = getattr(det, "peak", None)
        if peak is not None:
            out.append((peak.start_sample / sample_rate, peak.end_sample / sample_rate))
            continue
        start = getattr(det, "start_sample", None)
        if start is not None:
            out.append((start / sample_rate, det.end_sample / sample_rate))
            continue
        start, end = det
        out.append((start / sample_rate, end / sample_rate))
    return out


def match_detections(
    truth: GroundTruth,
    detections: Iterable,
    protocol: Optional[str] = None,
    min_overlap: float = 0.25,
) -> MatchResult:
    """Match detections to observable ground-truth transmissions.

    A transmission counts as found when some detection overlaps at least
    ``min_overlap`` of its duration.  Detections overlapping no
    transmission at all are counted in ``extra_detections``.
    """
    fs = truth.timebase.sample_rate
    intervals = _intervals_from(detections, fs)
    targets = truth.observable(protocol)
    found, missed = [], []
    used = np.zeros(len(intervals), dtype=bool)
    for tx in targets:
        need = min_overlap * tx.duration
        hit = False
        for i, (d0, d1) in enumerate(intervals):
            overlap = min(d1, tx.end_time) - max(d0, tx.start_time)
            if overlap >= need:
                hit = True
                used[i] = True
        (found if hit else missed).append(tx)
    any_truth = truth.observable()
    extra = 0
    for i, (d0, d1) in enumerate(intervals):
        if used[i]:
            continue
        if not any(t.overlaps(d0, d1) for t in any_truth):
            extra += 1
    return MatchResult(found=found, missed=missed, extra_detections=extra)


def packet_miss_rate(truth: GroundTruth, detections: Iterable,
                     protocol: Optional[str] = None) -> float:
    """Convenience wrapper: the paper's headline accuracy metric."""
    return match_detections(truth, detections, protocol).miss_rate


def false_positive_sample_rate(
    truth: GroundTruth,
    forwarded_ranges: Sequence[Tuple[int, int]],
    total_samples: int,
    protocol: Optional[str] = None,
) -> float:
    """Fraction of the trace forwarded despite holding no transmission.

    "The ratio of the number of non-useful samples (i.e. not belonging to
    a valid transmission) to the total size of the trace" (Section 5.1).
    With ``protocol`` given, only that protocol's transmissions count as
    useful — samples of an 802.11 packet forwarded to the Bluetooth
    demodulator are Bluetooth false positives (the Table 3 asymmetry).
    """
    if total_samples <= 0:
        return 0.0
    useful = truth.sample_mask(total_samples, protocol)
    forwarded = np.zeros(total_samples, dtype=bool)
    for start, end in forwarded_ranges:
        forwarded[max(start, 0) : min(end, total_samples)] = True
    return float(np.count_nonzero(forwarded & ~useful)) / total_samples
