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


class DecoderCrashError(RFDumpError):
    """A protocol's stream decoder raised while decoding a dispatched range.

    Raised only under ``on_error="raise"``; ``"skip"`` and ``"degrade"``
    record the range and decode the rest.
    """

    def __init__(self, message: str, protocol: Optional[str] = None):
        super().__init__(message)
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

