"""Exception hierarchy for the RFDump reproduction.

Every error raised on purpose by this package derives from
:class:`RFDumpError` so callers can catch package failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations

from typing import Optional


class RFDumpError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(RFDumpError):
    """A component was configured with invalid or inconsistent parameters."""


class TraceFormatError(RFDumpError):
    """A trace file is malformed or its sidecar metadata is inconsistent."""


class DecodeError(RFDumpError):
    """A demodulator could not decode a candidate transmission.

    Demodulators raise this (or return ``None``) when a forwarded block of
    samples turns out not to contain a valid packet for their protocol.
    In the RFDump architecture this is an *expected* outcome: the fast
    detection stage is allowed to produce false positives, and the
    demodulator is the final arbiter.
    """


class SyncError(DecodeError):
    """No preamble / access-code synchronization point was found."""


class ChecksumError(DecodeError):
    """A frame was demodulated but its integrity check failed."""

    def __init__(self, message: str, expected: Optional[int] = None,
                 actual: Optional[int] = None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class StreamGapError(RFDumpError, ValueError):
    """The sample stream is discontiguous: a window does not start where
    the previous one ended.

    A live front end drops samples on overruns, so long-running monitors
    treat this as a *fault to recover from*, not a programming error —
    ``on_error="degrade"`` resynchronizes and counts the lost samples
    instead of raising.  Subclasses :class:`ValueError` because that is
    what pre-taxonomy callers caught.
    """

    def __init__(self, message: str, expected_sample: Optional[int] = None,
                 actual_sample: Optional[int] = None):
        super().__init__(message)
        self.expected_sample = expected_sample
        self.actual_sample = actual_sample

    @property
    def gap_samples(self) -> Optional[int]:
        """Samples lost between windows (negative: the stream rewound)."""
        if self.expected_sample is None or self.actual_sample is None:
            return None
        return self.actual_sample - self.expected_sample


class SampleIntegrityError(RFDumpError):
    """A window carries non-finite (NaN/Inf) samples.

    A saturated or glitching front end emits them in bursts; unguarded,
    one burst poisons every running estimate carried across windows (the
    noise-floor EMA above all).
    """

    def __init__(self, message: str, bad_samples: int = 0):
        super().__init__(message)
        self.bad_samples = bad_samples


class WorkerCrashError(RFDumpError):
    """An analysis worker (thread or process) failed or its pool broke."""

    def __init__(self, message: str, protocol: Optional[str] = None):
        super().__init__(message)
        self.protocol = protocol


class DeadlineError(RFDumpError):
    """A latency budget was violated somewhere in the monitoring path.

    Base class for the deadline/admission layer (:mod:`repro.core.deadline`);
    under the degrade/skip policies budget violations are *handled* —
    shed and recorded, never raised — so this surfaces only under
    ``on_error="raise"``.
    """

    def __init__(self, message: str, budget_seconds: Optional[float] = None):
        super().__init__(message)
        self.budget_seconds = budget_seconds


class DecodeTimeoutError(DeadlineError):
    """An analysis task blew through its per-range decode deadline.

    Distinct from :class:`WorkerCrashError`: the worker did not fail, it
    is *still running* — which is precisely why the stage must not wait
    for it.  Raised only under ``on_error="raise"``.
    """

    def __init__(self, message: str, protocol: Optional[str] = None,
                 budget_seconds: Optional[float] = None):
        super().__init__(message, budget_seconds=budget_seconds)
        self.protocol = protocol


class DetectorCrashError(RFDumpError):
    """A protocol-specific fast detector raised while classifying."""

    def __init__(self, message: str, detector: Optional[str] = None):
        super().__init__(message)
        self.detector = detector


class ServiceProtocolError(RFDumpError):
    """An ``rfdumpd`` peer violated the wire protocol.

    Raised on malformed frames, truncated payloads, version mismatches
    and handshake rejections — faults of the *transport conversation*,
    as opposed to faults of the sample stream (:class:`StreamGapError`)
    or of the pipeline, which keep their own types.
    """

