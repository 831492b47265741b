"""802.11 timing detectors: SIFS and DIFS + k x slot gap patterns.

Section 3.2 / 4.4: a data packet and its MAC-level ACK are separated by
SIFS (10 us); contending packets are separated by DIFS + k x ST with
k in [0, CW].  Both detectors operate purely on the peak history.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.constants import WIFI_CW_MAX, WIFI_DIFS, WIFI_SIFS, WIFI_SLOT_TIME
from repro.core.detectors.base import Classification, Detector
from repro.core.peak_detector import PeakDetectionResult
from repro.dsp.samples import SampleBuffer


class WifiSifsTimingDetector(Detector):
    """Flags peak pairs whose gap matches the 802.11 SIFS.

    Both sides of a SIFS gap are classified: the data packet and the ACK
    belong to the same exchange.
    """

    protocol = "wifi"
    kind = "timing"

    def __init__(self, tolerance: float = 3e-6):
        self.tolerance = tolerance
        self.reach = WIFI_SIFS + tolerance

    def classify(self, detection: PeakDetectionResult,
                 buffer: Optional[SampleBuffer] = None) -> List[Classification]:
        history = detection.history
        fs = history.sample_rate
        starts, ends = history.starts, history.ends
        if len(history) < 2:
            return []
        gaps = (starts[1:] - ends[:-1]) / fs
        hits = np.flatnonzero(np.abs(gaps - WIFI_SIFS) <= self.tolerance)
        out: List[Classification] = []
        for i in hits:
            gap_err = abs(float(gaps[i]) - WIFI_SIFS)
            confidence = 1.0 - gap_err / self.tolerance
            info = {"gap_us": float(gaps[i]) * 1e6, "pattern": "SIFS"}
            out.append(Classification(history[int(i)], self.protocol, self.name,
                                      confidence, info=info))
            out.append(Classification(history[int(i) + 1], self.protocol, self.name,
                                      confidence, info=info))
        return self._dedup(out)


class WifiDifsTimingDetector(Detector):
    """Flags peak pairs whose gap matches DIFS + k x slot, k in [0, CW].

    The CW bound of 64 (Section 4.4) bounds both false positives and the
    detector's search latency.
    """

    protocol = "wifi"
    kind = "timing"

    def __init__(self, tolerance: float = 4e-6, cw: int = WIFI_CW_MAX):
        self.tolerance = tolerance
        self.cw = cw
        self.reach = WIFI_DIFS + cw * WIFI_SLOT_TIME + tolerance

    def classify(self, detection: PeakDetectionResult,
                 buffer: Optional[SampleBuffer] = None) -> List[Classification]:
        history = detection.history
        fs = history.sample_rate
        starts, ends = history.starts, history.ends
        if len(history) < 2:
            return []
        gaps = (starts[1:] - ends[:-1]) / fs
        k = np.rint((gaps - WIFI_DIFS) / WIFI_SLOT_TIME)
        residual = np.abs(gaps - (WIFI_DIFS + k * WIFI_SLOT_TIME))
        hits = np.flatnonzero(
            (k >= 0) & (k <= self.cw) & (residual <= self.tolerance)
        )
        out: List[Classification] = []
        for i in hits:
            confidence = 1.0 - float(residual[i]) / self.tolerance
            info = {
                "gap_us": float(gaps[i]) * 1e6,
                "pattern": "DIFS",
                "k": int(k[i]),
            }
            out.append(Classification(history[int(i)], self.protocol, self.name,
                                      confidence, info=info))
            out.append(Classification(history[int(i) + 1], self.protocol, self.name,
                                      confidence, info=info))
        return self._dedup(out)
