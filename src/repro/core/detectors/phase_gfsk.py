"""GFSK phase detector (Bluetooth).

Section 4.5: "Bluetooth uses a continuous-phase modulation technique ...
if the second derivative of the phase is equal to zero, the packet is
classified as Bluetooth.  The first derivative identifies the channel."
Cost per sample: one complex conjugation, multiplication and arctan, plus
a subtraction for the second derivative.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.constants import BT_BASE_FREQ, BT_CHANNEL_WIDTH, BT_NUM_CHANNELS, BT_SLOT, DEFAULT_CENTER_FREQ
from repro.core.detectors.base import Classification, Detector
from repro.core.peak_detector import PeakDetectionResult
from repro.dsp.phase import phase_derivative
from repro.dsp.samples import SampleBuffer


class GfskPhaseDetector(Detector):
    """Classifies peaks whose phase is continuous (second derivative ~ 0)."""

    protocol = "bluetooth"
    kind = "phase"

    def __init__(
        self,
        threshold_rad: float = 0.45,
        max_samples: int = 1600,
        center_freq: float = DEFAULT_CENTER_FREQ,
        max_duration: float = 5 * BT_SLOT,
        min_duration: float = 60e-6,
        skip_edge: int = 16,
    ):
        self.threshold_rad = threshold_rad
        self.max_samples = max_samples
        self.center_freq = center_freq
        self.max_duration = max_duration
        self.min_duration = min_duration
        self.skip_edge = skip_edge

    def _channel_of(self, cfo_hz: float) -> Optional[int]:
        """Map a measured baseband offset to a global Bluetooth channel."""
        freq = self.center_freq + cfo_hz
        channel = round((freq - BT_BASE_FREQ) / BT_CHANNEL_WIDTH)
        if 0 <= channel < BT_NUM_CHANNELS:
            return int(channel)
        return None

    def classify(self, detection: PeakDetectionResult,
                 buffer: SampleBuffer) -> List[Classification]:
        if buffer is None:
            raise ValueError("phase detectors need the sample buffer")
        fs = buffer.sample_rate
        out: List[Classification] = []
        # one iteration per peak; each does O(1) numpy calls
        for peak in detection.history:
            duration = peak.length / fs
            if not self.min_duration <= duration <= self.max_duration:
                continue
            lo = peak.start_sample + self.skip_edge
            hi = min(peak.end_sample - self.skip_edge, lo + self.max_samples)
            segment = buffer.slice(lo, hi).samples
            if segment.size < 64:
                continue
            d1 = phase_derivative(segment)
            d2 = np.angle(np.exp(1j * np.diff(d1)))
            metric = float(np.median(np.abs(d2)))
            if metric > self.threshold_rad:
                continue
            cfo = float(np.median(d1)) * fs / (2 * np.pi)
            confidence = 1.0 - metric / self.threshold_rad
            out.append(
                Classification(
                    peak, self.protocol, self.name, confidence,
                    channel=self._channel_of(cfo),
                    info={"d2_median": metric, "cfo_hz": cfo},
                )
            )
        return self._dedup(out)
