"""Component-level fault injection: crashing detectors and analyzers.

Where :mod:`repro.faults.injectors` damages the *stream*, these wrappers
damage the *pipeline components* processing it — a per-protocol fast
detector that raises mid-classify, an analyzer that raises mid-scan.
Both are deterministic: faults fire on explicit call indices (``at=``)
or on every call (``at=None``), never on a wall clock or ambient RNG.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.detectors.base import Detector


class InjectedFault(RuntimeError):
    """The exception every injected component fault raises.

    Deliberately *not* an :class:`~repro.errors.RFDumpError`: injected
    faults model buggy third-party components, and the error-policy
    layer must handle arbitrary exceptions, not just well-behaved ones.
    """


def _hit(at: Optional[frozenset], call_index: int) -> bool:
    return at is None or call_index in at


def _normalize_at(at) -> Optional[frozenset]:
    if at is None:
        return None
    return frozenset(int(i) for i in at)


class CrashingDetector(Detector):
    """A fast detector that raises on selected ``classify`` calls.

    Wraps a real detector (delegating protocol/kind and the healthy-call
    behavior) or stands alone as a detector that finds nothing.  With
    ``at=None`` every call crashes — the shape that trips the circuit
    breaker.
    """

    def __init__(self, wrapped: Optional[Detector] = None,
                 at: Optional[Sequence[int]] = (0,),
                 protocol: str = "wifi", kind: str = "timing"):
        self.wrapped = wrapped
        self.at = _normalize_at(at)
        self.calls = 0
        self.crashes = 0
        self.protocol = wrapped.protocol if wrapped is not None else protocol
        self.kind = wrapped.kind if wrapped is not None else kind

    @property
    def name(self) -> str:
        inner = self.wrapped.name if self.wrapped is not None else "none"
        return f"CrashingDetector[{inner}]"

    def classify(self, detection, buffer):
        index = self.calls
        self.calls += 1
        if _hit(self.at, index):
            self.crashes += 1
            raise InjectedFault(
                f"injected detector crash (call {index})"
            )
        if self.wrapped is not None:
            return self.wrapped.classify(detection, buffer)
        return []


class CrashingDecoder:
    """An analyzer whose ``scan`` raises on selected calls — the decoder
    crash the skip/degrade policies must contain to its own range."""

    def __init__(self, wrapped=None, at: Optional[Sequence[int]] = None):
        self.wrapped = wrapped
        self.at = _normalize_at(at)
        self.calls = 0

    def scan(self, buffer, **kwargs):
        index = self.calls
        self.calls += 1
        if _hit(self.at, index):
            raise InjectedFault(f"injected decoder crash (call {index})")
        if self.wrapped is not None:
            return self.wrapped.scan(buffer, **kwargs)
        return []
