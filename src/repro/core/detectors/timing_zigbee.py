"""ZigBee (802.15.4) timing detector.

Section 3.2: "a ZigBee timing block would look for spacings that are a
multiple of backoff periods (slot time), LIFS, SIFS or tACK (time between
a packet and the MAC-level ACK)".
"""

from __future__ import annotations

from typing import List, Optional


from repro.constants import (
    ZIGBEE_BACKOFF_PERIOD,
    ZIGBEE_LIFS,
    ZIGBEE_SIFS,
    ZIGBEE_T_ACK,
)
from repro.core.detectors.base import Classification, Detector
from repro.core.peak_detector import PeakDetectionResult
from repro.dsp.samples import SampleBuffer


class ZigbeeTimingDetector(Detector):
    """Flags peak pairs with 802.15.4-characteristic spacings."""

    protocol = "zigbee"
    kind = "timing"

    def __init__(self, tolerance: float = 8e-6, max_backoffs: int = 16):
        self.tolerance = tolerance
        self.max_backoffs = max_backoffs
        self._fixed_gaps = {
            "tACK": ZIGBEE_T_ACK,
            "SIFS": ZIGBEE_SIFS,
            "LIFS": ZIGBEE_LIFS,
        }
        self.reach = max(*self._fixed_gaps.values(),
                         max_backoffs * ZIGBEE_BACKOFF_PERIOD) + tolerance

    def _match_gap(self, gap: float):
        """Return (pattern, error) for the best-matching spacing, or None."""
        best = None
        for pattern, target in self._fixed_gaps.items():
            err = abs(gap - target)
            if err <= self.tolerance and (best is None or err < best[1]):
                best = (pattern, err)
        if best is not None:
            return best
        m = round(gap / ZIGBEE_BACKOFF_PERIOD)
        if 1 <= m <= self.max_backoffs:
            err = abs(gap - m * ZIGBEE_BACKOFF_PERIOD)
            if err <= self.tolerance:
                return (f"backoff x {m}", err)
        return None

    def classify(self, detection: PeakDetectionResult,
                 buffer: Optional[SampleBuffer] = None) -> List[Classification]:
        history = detection.history
        fs = history.sample_rate
        if len(history) < 2:
            return []
        starts, ends = history.starts, history.ends
        gaps = (starts[1:] - ends[:-1]) / fs
        out: List[Classification] = []
        for i, gap in enumerate(gaps):
            match = self._match_gap(float(gap))
            if match is None:
                continue
            pattern, err = match
            confidence = 1.0 - err / self.tolerance
            info = {"gap_us": float(gap) * 1e6, "pattern": pattern}
            out.append(Classification(history[i], self.protocol, self.name,
                                      confidence, info=info))
            out.append(Classification(history[i + 1], self.protocol, self.name,
                                      confidence, info=info))
        return self._dedup(out)
