"""Detector interface and classification records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.metadata import Peak
from repro.core.peak_detector import PeakDetectionResult
from repro.dsp.samples import SampleBuffer


@dataclass(frozen=True)
class Classification:
    """A tentative peak -> protocol mapping with a confidence value."""

    peak: Peak
    protocol: str
    detector: str
    confidence: float
    channel: Optional[int] = None
    info: Dict = field(default_factory=dict)


class Detector:
    """Base class for protocol-specific fast detectors.

    ``classify`` receives the protocol-agnostic stage's output (peak
    history + chunk metadata) and, for sample-reading detectors, the
    buffer itself.  Timing detectors must not touch the buffer — that
    property is what makes them nearly free — and the test suite enforces
    it.
    """

    #: protocol family this detector votes for
    protocol: str = ""
    #: "timing", "phase", or "frequency"
    kind: str = ""
    #: seconds after a peak ends within which the next peak's start can
    #: still add a claim on it (a pair detector's widest gap); a stream
    #: holds a peak's claims open that long
    reach: float = 0.0

    @property
    def name(self) -> str:
        return type(self).__name__

    def classify(self, detection: PeakDetectionResult,
                 buffer: Optional[SampleBuffer]) -> List[Classification]:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def _dedup(classifications: List[Classification]) -> List[Classification]:
        """Keep the highest-confidence classification per peak."""
        best: Dict[int, Classification] = {}
        for c in classifications:
            key = c.peak.index
            if key not in best or c.confidence > best[key].confidence:
                best[key] = c
        return [best[k] for k in sorted(best)]
