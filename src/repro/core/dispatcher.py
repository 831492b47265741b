"""Dispatcher: classified peaks -> chunk-aligned sample ranges per protocol.

After the detection stage "the stream of signal is only accessed as
needed" (Section 2.2): the dispatcher converts classifications into merged,
chunk-granular sample ranges, each optionally carrying a channel hint, and
accounts for every forwarded sample (the false-positive denominator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.constants import DEFAULT_CHUNK_SAMPLES
from repro.core.detectors.base import Classification


@dataclass
class DispatchedRange:
    """A chunk-aligned sample range forwarded to one protocol's analyzer."""

    start_sample: int
    end_sample: int
    channel: Optional[int] = None
    peak_indices: List[int] = field(default_factory=list)
    confidence: float = 0.0
    #: True once two classifications contributed *different* concrete
    #: channel hints — the range's channel is unknowable, not merely
    #: unknown, and no later hint may resurrect it.
    channel_conflict: bool = False

    @property
    def length(self) -> int:
        return self.end_sample - self.start_sample


class Dispatcher:
    """Merges classifications into per-protocol forwarding ranges.

    ``min_confidence`` drops tentative classifications below the cutoff
    before any forwarding happens — the knob trading demodulator load
    against miss rate that the architecture's confidence values exist for
    (Section 2.2: detectors "associate confidence values" with their
    findings).  Confidence scales are detector-specific, so the cutoff
    may be a single float or a per-protocol dict (protocols not listed
    are ungated).
    """

    def __init__(self, chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
                 min_confidence=0.0, obs=None):
        if chunk_samples <= 0:
            raise ValueError("chunk_samples must be positive")
        if isinstance(min_confidence, dict):
            values = min_confidence.values()
        else:
            values = [min_confidence]
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("min_confidence values must be in [0, 1]")
        self.chunk_samples = chunk_samples
        self.min_confidence = min_confidence
        #: optional repro.obs.Observability for dispatch metrics
        self.obs = obs

    def _cutoff_for(self, protocol: str) -> float:
        if isinstance(self.min_confidence, dict):
            return self.min_confidence.get(protocol, 0.0)
        return self.min_confidence

    def _align(self, start: int, end: int, end_sample: int, start_sample: int):
        cs = self.chunk_samples
        lo = (start // cs) * cs
        hi = -((-end) // cs) * cs  # ceil to chunk boundary
        return max(lo, start_sample), min(hi, end_sample)

    def dispatch(self, classifications: List[Classification],
                 end_sample: int, start_sample: int = 0) -> Dict[str, List[DispatchedRange]]:
        """Group, align and merge classified peaks by protocol.

        ``start_sample``/``end_sample`` bound the forwarded ranges — pass
        the buffer's absolute bounds when peaks carry absolute indices
        (streamed windows).
        """
        by_protocol: Dict[str, List[DispatchedRange]] = {}
        dropped = 0
        for c in sorted(classifications, key=lambda c: c.peak.start_sample):
            if c.confidence < self._cutoff_for(c.protocol):
                dropped += 1
                continue
            lo, hi = self._align(
                c.peak.start_sample, c.peak.end_sample, end_sample, start_sample
            )
            if hi <= lo:
                continue
            ranges = by_protocol.setdefault(c.protocol, [])
            if ranges and lo <= ranges[-1].end_sample:
                last = ranges[-1]
                last.end_sample = max(last.end_sample, hi)
                last.confidence = max(last.confidence, c.confidence)
                # Reconcile the channel hint *before* recording the new
                # peak: a missing hint carries no information, so the
                # first concrete hint upgrades it; two *different*
                # concrete hints poison the range to "unknown" for good.
                if last.channel != c.channel:
                    if last.channel is None and not last.channel_conflict:
                        last.channel = c.channel
                    elif c.channel is not None:
                        last.channel = None
                        last.channel_conflict = True
                if c.peak.index not in last.peak_indices:
                    last.peak_indices.append(c.peak.index)
            else:
                ranges.append(
                    DispatchedRange(
                        start_sample=lo, end_sample=hi, channel=c.channel,
                        peak_indices=[c.peak.index], confidence=c.confidence,
                    )
                )
        if self.obs:
            if dropped:
                self.obs.counter(
                    "rfdump_classifications_dropped_total",
                    help="classifications below the confidence cutoff",
                ).inc(dropped)
            for protocol, rs in by_protocol.items():
                self.obs.counter(
                    "rfdump_ranges_dispatched_total",
                    help="chunk-aligned ranges forwarded to the analyzers",
                    protocol=protocol,
                ).inc(len(rs))
                self.obs.counter(
                    "rfdump_forwarded_samples_total",
                    help="samples forwarded to the analyzers (the "
                         "false-positive denominator)",
                    protocol=protocol,
                ).inc(sum(r.length for r in rs))
        return by_protocol

    @staticmethod
    def forwarded_samples(ranges: Dict[str, List[DispatchedRange]]) -> Dict[str, int]:
        """Total samples forwarded per protocol."""
        return {
            protocol: sum(r.length for r in rs) for protocol, rs in ranges.items()
        }
