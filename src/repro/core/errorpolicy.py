"""The error-policy layer: what a monitor does when a component faults.

RFDump is pitched as an always-on monitor of the shared ether; a live
front end drops samples, a saturated ADC emits NaN bursts, and a buggy
per-protocol analyzer must not take the whole pipeline down with it.
Every fault-handling seam in the pipeline consults one policy knob
(:attr:`MonitorConfig.on_error <repro.core.config.MonitorConfig>`):

``None`` (legacy)
    Per-component historical behavior — stream gaps raise, detector
    and decoder exceptions propagate unwrapped.
``"raise"``
    Strict: every fault surfaces immediately as its typed
    :class:`~repro.errors.RFDumpError` subclass
    (:class:`~repro.errors.StreamGapError`,
    :class:`~repro.errors.SampleIntegrityError`,
    :class:`~repro.errors.DetectorCrashError`,
    :class:`~repro.errors.DecoderCrashError`).
``"skip"``
    Drop the faulting unit's work (a window, a detector's vote, a
    dispatched range) and continue; cheap, lossy, fully counted.
``"degrade"``
    Recover as much as possible: resynchronize across gaps, sanitize
    non-finite bursts, quarantine repeat-offender detectors behind a
    circuit breaker, skip a range its decoder crashed on — everything
    counted and surfaced on the report.

This module holds the pieces the policy seams share: the policy
vocabulary, the :class:`ErrorRecord` that reports carry, the non-finite
sample policy of every monitor (:func:`sanitize_nonfinite`), and the
per-component :class:`CircuitBreaker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SampleIntegrityError

if TYPE_CHECKING:
    from repro.dsp.samples import SampleBuffer

#: accepted values for ``on_error`` (``None`` = legacy per-component
#: defaults; see the module docstring)
ERROR_POLICIES: Tuple[Optional[str], ...] = (None, "raise", "skip", "degrade")


def validate_error_policy(on_error: Optional[str]) -> Optional[str]:
    """Return ``on_error`` unchanged if it is a known policy, else raise."""
    if on_error not in ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ERROR_POLICIES[1:]} or None, "
            f"got {on_error!r}"
        )
    return on_error


@dataclass
class ErrorRecord:
    """One recovered-from fault, as surfaced on a :class:`MonitorReport`.

    Records are facts about *handled* faults — anything that raised
    instead never produces one.  ``action`` says what the policy layer
    did about it.
    """

    #: pipeline stage that faulted: "stream", "detector" or "analysis"
    stage: str
    #: faulting component: detector name, protocol, or "window"
    component: str
    #: exception type name (e.g. "RuntimeError")
    error: str
    #: stringified exception message
    message: str
    #: recovery taken: "resync", "sanitized", "skipped", "quarantined";
    #: the service adds "flushed", "aborted", "rejected", "disconnected"
    action: str = ""
    #: absolute sample bounds of the affected region, when known
    start_sample: int = 0
    end_sample: int = 0

    @classmethod
    def from_exception(cls, stage: str, component: str, exc: BaseException,
                       action: str = "", start_sample: int = 0,
                       end_sample: int = 0) -> "ErrorRecord":
        return cls(
            stage=stage,
            component=component,
            error=type(exc).__name__,
            message=str(exc),
            action=action,
            start_sample=start_sample,
            end_sample=end_sample,
        )


def sanitize_nonfinite(buffer: "SampleBuffer", bad_samples: int,
                       stage: str, component: str, on_error: Optional[str],
                       errors: List[ErrorRecord]) -> "SampleBuffer":
    """The buffer a monitor analyses once ``component`` (of ``stage``)
    has counted ``bad_samples`` NaN/Inf samples in ``buffer``.

    A clean buffer comes back as it is.  Otherwise ``on_error="raise"``
    raises :class:`~repro.errors.SampleIntegrityError`; every other
    policy appends one ``action="sanitized"`` record to ``errors`` and
    returns :meth:`SampleBuffer.finite`, so a bad sample costs itself
    and nothing around it, and no demodulator is handed NaN/Inf.
    """
    if not bad_samples:
        return buffer
    message = (
        f"{bad_samples} non-finite samples in "
        f"[{buffer.start_sample}, {buffer.end_sample})"
    )
    if on_error == "raise":
        raise SampleIntegrityError(message, bad_samples=bad_samples)
    errors.append(ErrorRecord(
        stage=stage, component=component,
        error="SampleIntegrityError", message=f"{message} zeroed",
        action="sanitized", start_sample=buffer.start_sample,
        end_sample=buffer.end_sample,
    ))
    return buffer.finite()


class CircuitBreaker:
    """Consecutive-failure breaker over named components.

    A component that fails ``threshold`` times in a row is *quarantined*:
    :meth:`is_open` returns True and the caller stops invoking it (one
    misbehaving classifier must not tax every subsequent window).  A
    success in between resets the count.  The breaker stays open for the
    owner's lifetime unless :meth:`reset` is called — a crashed detector
    does not heal itself mid-run.
    """

    def __init__(self, threshold: int = 3):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self._consecutive: Dict[str, int] = {}
        self._open: Dict[str, bool] = {}

    def record_failure(self, name: str) -> bool:
        """Count a failure; returns True when this one trips the breaker."""
        if self._open.get(name):
            return False
        count = self._consecutive.get(name, 0) + 1
        self._consecutive[name] = count
        if count >= self.threshold:
            self._open[name] = True
            return True
        return False

    def record_success(self, name: str) -> None:
        self._consecutive[name] = 0

    def is_open(self, name: str) -> bool:
        return bool(self._open.get(name))

    @property
    def open_components(self) -> Tuple[str, ...]:
        """Quarantined component names, sorted for determinism."""
        return tuple(sorted(n for n, o in self._open.items() if o))

    def failures(self, name: str) -> int:
        """Current consecutive-failure count for a component."""
        return self._consecutive.get(name, 0)

    def reset(self, name: Optional[str] = None) -> None:
        """Re-admit one component (or all of them) for another chance."""
        if name is None:
            self._consecutive.clear()
            self._open.clear()
        else:
            self._consecutive.pop(name, None)
            self._open.pop(name, None)
