"""Streaming monitor: RFDump over an endless sample stream.

The core monitor processes one finite buffer at a time; a real deployment
consumes an unbounded stream in windows.  A transmission that straddles a
window boundary would be lost (its peak is cut in both windows), so
:class:`StreamingMonitor` carries a *seam* (:class:`~repro.core.pipeline.Seam`)
from each window into the next: the peak detector's gate state, the
samples from the chunk-aligned start of the earliest range or peak still
open at the window's end, the final peaks the timing detectors read back
to, and the classifications of the open ranges.  A window that ends idle
on a chunk edge carries no samples and the next is analysed in place,
uncopied.  A range that closes inside a
window is demodulated once and its packets are final at once; an open
range is demodulated when a later window, a stream gap, a skipped window
or :meth:`~StreamingMonitor.flush` closes it.  Every pass reaches the
caller in a report, and only there: a window's report, the report of a
close pass a gap or a skipped window forced (``report.closed``), and the
flush's report.  The gate continues from window to window and peaks and
ranges are analysed with the context one pass over the whole stream
gives them, so the events equal the one-shot monitor's given the same
noise floor, however the stream is cut.  The
floor is estimated once: the first window's estimate is frozen and
handed to every later window (``PeakDetector.detect`` returns the floor
it was given), so later windows skip the estimate and the whole-window
power array it needs.

The monitor keeps nothing of a window once :meth:`~StreamingMonitor.process`
returns: the seam holds its own copy of the samples it carries (at most
``overlap`` of them, none when the window ends idle), and no
report points into the window.  A caller may therefore read every window
into one reused array, as the ``rfdumpd`` ingest session does.

Because the front end is a real radio, the stream is allowed to
misbehave: overruns drop samples (the next window no longer starts where
the last one ended) and saturation emits NaN/Inf bursts.  A window
holding such samples still estimates a floor, over its finite chunks,
but that estimate is not the one frozen — the next clean window's is.
The ``on_error`` policy decides the response — ``"raise"`` surfaces
typed errors
(:class:`~repro.errors.StreamGapError`,
:class:`~repro.errors.SampleIntegrityError`), ``"skip"`` drops the
offending window, and ``"degrade"`` resynchronizes across gaps, counting
every lost sample.  Under every other policy a window holding
non-finite samples is analysed, and the peak detector applies the one
non-finite rule (:func:`~repro.core.errorpolicy.sanitize_nonfinite`)
exactly as it does for a one-shot :class:`RFDumpMonitor`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.core.config import MonitorConfig
from repro.core.errorpolicy import ErrorRecord
from repro.core.monitor import Monitor
from repro.core.pipeline import MonitorReport, RFDumpMonitor, Seam
from repro.dsp.samples import SampleBuffer
from repro.errors import StreamGapError
from repro.obs import NULL


class StreamingMonitor(Monitor):
    """Wraps an :class:`RFDumpMonitor`, carrying a seam across windows.

    Parameters
    ----------
    monitor:
        The underlying monitor (its ``noise_floor`` is managed here).
        May be omitted when ``config`` is given — the streaming monitor
        then builds its own :class:`RFDumpMonitor` from the config.
    overlap:
        The most samples the seam may carry into the next window (default
        20 ms at 8 Msps: a maximum-length 1 Mbps 802.11b frame is 18.96
        ms).  A window whose open activity needs more closes every range
        at its end instead, as :meth:`flush` does.

    The fault policy for stream-level faults (gaps, NaN bursts) is the
    wrapped monitor's ``config.on_error``.  ``None`` keeps the legacy
    contract: gaps raise (a :class:`~repro.errors.StreamGapError`, which
    is a ``ValueError``), noise-floor estimates made over non-finite
    samples are not carried forward, and counted.
    """

    def __init__(self, monitor: Optional[RFDumpMonitor] = None,
                 overlap: int = 160_000,
                 config: Optional[MonitorConfig] = None):
        if overlap < 0:
            raise ValueError("overlap must be non-negative")
        if monitor is None:
            if config is None:
                raise ValueError("pass a monitor or a MonitorConfig")
            monitor = RFDumpMonitor(config=config)
        self.monitor = monitor
        self.config = monitor.config
        self.obs = monitor.obs
        self.overlap = overlap
        self.on_error = monitor.config.on_error
        #: stream-level faults handled so far (gaps, NaN bursts, skips)
        self.errors: List[ErrorRecord] = []
        #: samples lost to gaps and skipped windows
        self.lost_samples = 0
        #: stream gaps resynchronized across (degrade/skip modes)
        self.gaps = 0
        #: what the last window left open (None before the first)
        self._seam: Optional[Seam] = None
        self._noise_floor = monitor.noise_floor

    @staticmethod
    def _stitch(window: SampleBuffer, carry: SampleBuffer) -> SampleBuffer:
        # contiguity is process()'s job: it checked first and either
        # raised or restarted the seam
        if len(carry) == 0:
            return window
        samples = np.concatenate([carry.samples, window.samples])
        return SampleBuffer(samples, window.timebase, carry.start_sample)

    def _analyse(self, buffer: SampleBuffer, seam: Seam) -> MonitorReport:
        """One pass of the wrapped monitor; keeps its floor and seam."""
        self.monitor.noise_floor = self._noise_floor
        report = self.monitor.process(buffer, seam)
        nf = report.noise_floor
        # The first estimate kept is frozen for the life of the stream,
        # so it must be a clean one: a non-finite estimate (every chunk
        # held a NaN/Inf) or one made over a window the peak detector
        # had to sanitize is used for that window only.
        suspect = nf is not None and (not np.isfinite(nf) or (
            self._noise_floor is None and any(
                e.component == "PeakDetector" and e.action == "sanitized"
                for e in report.errors)))
        if suspect:
            (self.obs or NULL).counter(
                "rfdump_stream_nonfinite_noise_floor_total",
                help="noise-floor estimates of windows holding NaN/Inf "
                     "samples discarded instead of being carried forward",
            ).inc()
        else:
            self._noise_floor = nf
        self._seam = report.seam
        return report

    def _close(self) -> Optional[MonitorReport]:
        """Finalise what the seam holds open, the one way every path
        does (a gap, a skipped window, ``flush()``): one last pass over
        the carried samples in which every range closes; returns its
        report, or None when nothing is open.  Nothing later reads those
        samples again, so nothing is emitted twice."""
        if self._seam is None or not len(self._seam.buffer):
            return None
        return self._analyse(self._seam.buffer,
                             replace(self._seam, final=True))

    def _restart(self, window: SampleBuffer,
                 at: int) -> Optional[MonitorReport]:
        """Close what the seam holds open and restart the stream at
        ``window``'s sample ``at``; returns the close pass's report."""
        closed = self._close()
        self._seam = Seam.opening(window, at, self.overlap)
        return closed

    def _gap(self, window: SampleBuffer, expected: int, obs,
             errors: List[ErrorRecord]) -> None:
        """A window that does not start at sample ``expected``, where the
        stream is: raise, or record the gap and the samples it lost."""
        if self.on_error in (None, "raise"):
            raise StreamGapError(
                f"window starts at {window.start_sample}, expected "
                f"{expected} (streams must be contiguous)",
                expected_sample=expected,
                actual_sample=window.start_sample,
            )
        lost = max(window.start_sample - expected, 0)
        self.gaps += 1
        self.lost_samples += lost
        record = ErrorRecord(
            stage="stream", component="window", error="StreamGapError",
            message=f"stream gap: expected sample {expected}, window "
                    f"starts at {window.start_sample} ({lost} samples "
                    f"lost)",
            action="resync", start_sample=expected,
            end_sample=window.start_sample,
        )
        errors.append(record)
        obs.counter(
            "rfdump_stream_gaps_total",
            help="stream discontinuities resynchronized across",
        ).inc()
        obs.counter(
            "rfdump_stream_gap_lost_samples_total",
            help="samples lost to stream gaps",
        ).inc(lost)

    def _skips(self, window: SampleBuffer, obs,
               errors: List[ErrorRecord]) -> bool:
        """True when the skip policy drops ``window`` for holding
        non-finite samples (recorded).  Under raise and degrade the
        window goes on, and the peak detector applies the one
        non-finite rule (errorpolicy.sanitize_nonfinite) to it."""
        if self.on_error != "skip":
            return False
        bad = int(len(window) - np.count_nonzero(np.isfinite(window.samples)))
        if not bad:
            return False
        record = ErrorRecord(
            stage="stream", component="window",
            error="SampleIntegrityError",
            message=f"{bad} non-finite samples; window dropped",
            action="skipped", start_sample=window.start_sample,
            end_sample=window.end_sample,
        )
        errors.append(record)
        self.lost_samples += len(window)
        obs.counter(
            "rfdump_stream_windows_skipped_total",
            help="windows dropped by the skip error policy",
        ).inc()
        return True

    def process(self, window: SampleBuffer) -> MonitorReport:
        """Process the next contiguous window; returns its report.

        The report holds what became final in this window: the ranges
        that closed (and their packets), and the peaks and
        classifications that can no longer change.  When a stream gap
        or a skipped window forced the seam closed first, that pass's
        report is ``report.closed``.  ``window``'s samples are not read
        after this returns, so the caller may overwrite them.
        """
        obs = self.obs or NULL
        if len(window) == 0:
            # Nothing new to analyze — even when the empty window's start
            # is discontiguous, there is nothing to lose or resync; keep
            # the seam intact and let the next real window face the
            # continuity check.
            return MonitorReport.empty(self._noise_floor)
        if self._seam is None:
            self._seam = Seam.opening(window, window.start_sample,
                                      self.overlap)
        errors: List[ErrorRecord] = []
        closed = None
        expected = self._seam.buffer.end_sample
        if window.start_sample != expected:
            self._gap(window, expected, obs, errors)
            closed = self._restart(window, window.start_sample)
        skipped = self._skips(window, obs, errors)
        self.errors.extend(errors)
        if skipped:
            # the stream resumes at the dropped window's end
            closed = self._restart(window, window.end_sample) or closed
            report = MonitorReport.empty(self._noise_floor, errors)
        else:
            stitched = self._stitch(window, self._seam.buffer)
            obs.counter(
                "rfdump_stream_windows_total",
                help="stream windows processed",
            ).inc()
            obs.counter(
                "rfdump_stream_overlap_samples_total",
                help="samples the seam carried into the window",
            ).inc(len(stitched) - len(window))
            report = self._analyse(stitched, self._seam)
            report.errors.extend(errors)
        report.closed = closed
        return report

    def flush(self) -> MonitorReport:
        """Finalise whatever the seam holds open and return that pass's
        report (an empty one when nothing is open); idempotent.

        Mid-stream it closes the open ranges as a gap would: a packet
        still running into the stream head is decoded as far as it has
        arrived, and the next window starts afresh at the head.
        """
        (self.obs or NULL).counter(
            "rfdump_stream_flushes_total", help="flush() calls"
        ).inc()
        return self._close() or MonitorReport.empty(self._noise_floor)
