"""Streaming monitor: RFDump over an endless sample stream.

The core monitor processes one finite buffer at a time; a real deployment
consumes an unbounded stream in windows.  A packet that straddles a
window boundary would be lost (its peak is truncated in both windows), so
:class:`StreamingMonitor` carries a tail of each window into the next —
sized to the longest transmission it must not split — and deduplicates
the overlap region.  The noise floor is estimated once: the first
window's estimate is frozen and handed to every later window (there is
no running average — ``PeakDetector.detect`` returns the floor it was
given), so later windows skip the estimate and the whole-window power
array it needs.

Because the front end is a real radio, the stream is allowed to
misbehave: overruns drop samples (the next window no longer starts where
the tail ended) and saturation emits NaN/Inf bursts.  A window holding
such samples still estimates a floor, over its finite chunks, but that
estimate is not the one frozen — the next clean window's is.  The
``on_error`` policy decides the response — ``"raise"`` surfaces typed
errors
(:class:`~repro.errors.StreamGapError`,
:class:`~repro.errors.SampleIntegrityError`), ``"skip"`` drops the
offending window, and ``"degrade"`` resynchronizes across gaps and
sanitizes non-finite bursts, counting every lost sample.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.analysis.decoders import PacketRecord
from repro.core.accounting import StageClock
from repro.core.config import MonitorConfig
from repro.core.errorpolicy import ErrorRecord
from repro.core.monitor import Monitor
from repro.core.pipeline import MonitorReport, RFDumpMonitor
from repro.dsp.samples import SampleBuffer
from repro.errors import SampleIntegrityError, StreamGapError
from repro.obs import NULL


class StreamingMonitor(Monitor):
    """Wraps an :class:`RFDumpMonitor` with window-overlap handling.

    Parameters
    ----------
    monitor:
        The underlying monitor (its ``noise_floor`` is managed here).
        May be omitted when ``config`` is given — the streaming monitor
        then builds its own :class:`RFDumpMonitor` from the config.
    overlap:
        Samples carried from the end of each window into the next; size it
        to the longest packet plus margin (default 6 ms at 8 Msps — a
        maximum-length 1 Mbps 802.11b frame).

    The fault policy for stream-level faults (gaps, NaN bursts) is the
    wrapped monitor's ``config.on_error``.  ``None`` keeps the legacy
    contract: gaps raise (a :class:`~repro.errors.StreamGapError`, which
    is a ``ValueError``), noise-floor estimates made over non-finite
    samples are not carried forward, and counted.
    """

    def __init__(self, monitor: Optional[RFDumpMonitor] = None,
                 overlap: int = 48_000,
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
        self._tail: Optional[SampleBuffer] = None
        self._emitted_to = 0  # absolute sample up to which output is final
        self._event_cursor = 0  # packets already yielded by events()
        self.packets: List[PacketRecord] = []
        self.classifications = []
        self.clock = StageClock()
        self._noise_floor = monitor.noise_floor
        self._deferred_packets: List[PacketRecord] = []
        self._deferred_classifications: list = []
        # Results a mid-stream flush() released ahead of the emission
        # frontier; the next windows will re-detect them from the carried
        # tail, so their keys are held until the frontier passes them.
        self._early_packets: set = set()
        self._early_classifications: set = set()

    def _stitch(self, window: SampleBuffer) -> SampleBuffer:
        # contiguity is _check_stream's job: it ran first and either
        # raised or dropped the tail
        if self._tail is None or len(self._tail) == 0:
            return window
        samples = np.concatenate([self._tail.samples, window.samples])
        return SampleBuffer(samples, window.timebase, self._tail.start_sample)

    def _empty_report(self, errors: Optional[List[ErrorRecord]] = None
                      ) -> MonitorReport:
        return MonitorReport(
            total_samples=0, duration=0.0, peaks=None,
            classifications=[], ranges={}, packets=[],
            clock=StageClock(), noise_floor=self._noise_floor,
            errors=list(errors or []),
        )

    def _resync(self, frontier: int) -> None:
        """Abandon the carried tail after a stream fault.

        The context that would re-detect the deferred results is gone, so
        they are final — release them — and the emission frontier jumps
        to ``frontier`` (nothing before it can be produced anymore).
        """
        self.packets.extend(self._deferred_packets)
        self.classifications.extend(self._deferred_classifications)
        self._deferred_packets = []
        self._deferred_classifications = []
        self._tail = None
        self._emitted_to = max(self._emitted_to, frontier)

    def _check_stream(self, window: SampleBuffer, obs,
                      errors: List[ErrorRecord]) -> Optional[SampleBuffer]:
        """Apply the stream-fault policy; returns the window to process
        (possibly sanitized) or None when the skip policy dropped it."""
        # -- continuity ------------------------------------------------------
        if (self._tail is not None and len(self._tail)
                and self._tail.end_sample != window.start_sample):
            expected = self._tail.end_sample
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
            self.errors.append(record)
            errors.append(record)
            obs.counter(
                "rfdump_stream_gaps_total",
                help="stream discontinuities resynchronized across",
            ).inc()
            obs.counter(
                "rfdump_stream_gap_lost_samples_total",
                help="samples lost to stream gaps",
            ).inc(lost)
            self._resync(window.start_sample)
        # -- sample integrity ------------------------------------------------
        if self.on_error is not None:
            bad = int(len(window) - np.count_nonzero(
                np.isfinite(window.samples)
            ))
            if bad:
                if self.on_error == "raise":
                    raise SampleIntegrityError(
                        f"{bad} non-finite samples in window "
                        f"[{window.start_sample}, {window.end_sample})",
                        bad_samples=bad,
                    )
                if self.on_error == "skip":
                    record = ErrorRecord(
                        stage="stream", component="window",
                        error="SampleIntegrityError",
                        message=f"{bad} non-finite samples; window "
                                f"dropped", action="skipped",
                        start_sample=window.start_sample,
                        end_sample=window.end_sample,
                    )
                    self.errors.append(record)
                    errors.append(record)
                    self.lost_samples += len(window)
                    obs.counter(
                        "rfdump_stream_windows_skipped_total",
                        help="windows dropped by the skip error policy",
                    ).inc()
                    self._resync(window.end_sample)
                    # a zero-length tail at the window's end keeps the
                    # next window's continuity check honest
                    self._tail = window.slice(
                        window.end_sample, window.end_sample
                    )
                    return None
                # degrade: zero the burst and analyze what remains
                record = ErrorRecord(
                    stage="stream", component="window",
                    error="SampleIntegrityError",
                    message=f"{bad} non-finite samples sanitized to zero",
                    action="sanitized", start_sample=window.start_sample,
                    end_sample=window.end_sample,
                )
                self.errors.append(record)
                errors.append(record)
                obs.counter(
                    "rfdump_stream_nonfinite_samples_total",
                    help="NaN/Inf samples zeroed by the degrade policy",
                ).inc(bad)
                samples = np.nan_to_num(
                    window.samples, nan=0.0, posinf=0.0, neginf=0.0
                )
                window = SampleBuffer(
                    samples, window.timebase, window.start_sample
                )
        return window

    def process(self, window: SampleBuffer) -> MonitorReport:
        """Process the next contiguous window; returns its report.

        Packets and classifications are accumulated on the monitor
        (deduplicated across overlaps); the per-window report is returned
        for callers that want window-level detail.
        """
        obs = self.obs or NULL
        if len(window) == 0:
            # Nothing new to analyze — even when the empty window's start
            # is discontiguous, there is nothing to lose or resync; keep
            # the tail and frontier intact and let the next real window
            # face the continuity check.
            return self._empty_report()
        stream_errors: List[ErrorRecord] = []
        checked = self._check_stream(window, obs, stream_errors)
        if checked is None:  # skip policy dropped the window
            return self._empty_report(stream_errors)
        window = checked
        stitched = self._stitch(window)
        obs.counter(
            "rfdump_stream_windows_total", help="stream windows processed"
        ).inc()
        obs.counter(
            "rfdump_stream_overlap_samples_total",
            help="samples re-analyzed from the carried tail",
        ).inc(len(stitched) - len(window))
        self.monitor.noise_floor = self._noise_floor
        report = self.monitor.process(stitched)
        report.errors.extend(stream_errors)
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
            obs.counter(
                "rfdump_stream_nonfinite_noise_floor_total",
                help="noise-floor estimates of windows holding NaN/Inf "
                     "samples discarded instead of being carried forward",
            ).inc()
        else:
            self._noise_floor = nf
        self.clock = self.clock.merged(report.clock)

        # Packets starting inside the carried tail will be seen again by
        # the next window, so they are deferred: emitting them now would
        # duplicate them.  flush() releases the final window's deferrals.
        # The frontier is clamped so it never moves backwards — a window
        # shorter than the overlap (or a mid-stream flush) must not cause
        # already-emitted packets to be re-emitted as duplicates.
        new_emitted_to = max(self._emitted_to, stitched.end_sample - self.overlap)
        dedup_hits = 0
        self._deferred_packets = []
        self._deferred_classifications = []
        for packet in report.packets:
            if packet.start_sample < self._emitted_to:
                dedup_hits += 1
                continue
            if self._packet_key(packet) in self._early_packets:
                dedup_hits += 1
                continue  # a mid-stream flush already released it
            if packet.start_sample < new_emitted_to:
                self.packets.append(packet)
            else:
                self._deferred_packets.append(packet)
        for c in report.classifications:
            if c.peak.start_sample < self._emitted_to:
                continue
            if self._classification_key(c) in self._early_classifications:
                continue
            if c.peak.start_sample < new_emitted_to:
                self.classifications.append(c)
            else:
                self._deferred_classifications.append(c)

        self._emitted_to = new_emitted_to
        if dedup_hits:
            obs.counter(
                "rfdump_stream_dedup_hits_total",
                help="packets suppressed as overlap-region duplicates",
            ).inc(dedup_hits)
        obs.gauge(
            "rfdump_stream_frontier_lag_samples",
            help="samples between the stream head and the emission frontier",
        ).set(stitched.end_sample - new_emitted_to)
        obs.gauge(
            "rfdump_stream_deferred_packets",
            help="decoded packets held back until the frontier passes them",
        ).set(len(self._deferred_packets))
        # keys behind the frontier are now covered by the `_emitted_to`
        # guard and can be forgotten
        self._early_packets = {
            k for k in self._early_packets if k[0] >= new_emitted_to
        }
        self._early_classifications = {
            k for k in self._early_classifications if k[0] >= new_emitted_to
        }
        # The carried tail is always the last `overlap` samples — it is
        # detection context, independent of the emission frontier (which
        # a flush may have pushed past the overlap region).
        tail_start = max(stitched.end_sample - self.overlap, stitched.start_sample)
        self._tail = stitched.slice(tail_start, stitched.end_sample)
        if any(e.component == "PeakDetector" for e in report.errors):
            # NaN/Inf the peak detector zeroed, counted and reported:
            # carry the zeros, or the next window counts them again
            self._tail = self._tail.finite()
        return report

    @staticmethod
    def _packet_key(packet: PacketRecord):
        # the same transmission re-decoded from the next window lands on
        # the same absolute start sample
        return (packet.start_sample, packet.protocol, packet.decoder)

    @staticmethod
    def _classification_key(c):
        return (c.peak.start_sample, c.detector)

    # -- deadline/backpressure surface ---------------------------------------
    #
    # The wrapped monitor owns the deadline scheduler; each window this
    # wrapper feeds it is one budget, so windows that ran over raise the
    # admission level and the *next* window's admitted range set shrinks
    # — backpressure from the analyzers to the detection stage without
    # any coupling in this class.

    @property
    def deadline_misses(self) -> int:
        """Windows that exceeded the configured deadline budget so far."""
        return self.monitor.deadline_misses

    @property
    def ranges_shed(self) -> int:
        """Ranges shed to hold the latency budget so far."""
        return self.monitor.ranges_shed

    def flush(self) -> "StreamingMonitor":
        """Release deferred results; idempotent and safe mid-stream.

        Flushed results are remembered until the emission frontier passes
        them, so a later window re-detecting them from the carried tail
        cannot emit duplicates — and a packet still undecodable (it
        straddles the stream head) stays pending rather than being lost.
        """
        obs = self.obs or NULL
        obs.counter(
            "rfdump_stream_flushes_total", help="flush() calls"
        ).inc()
        if self._deferred_packets:
            obs.counter(
                "rfdump_stream_flushed_packets_total",
                help="deferred packets released by flush()",
            ).inc(len(self._deferred_packets))
        if self._deferred_classifications:
            obs.counter(
                "rfdump_stream_flushed_classifications_total",
                help="deferred classifications released by flush()",
            ).inc(len(self._deferred_classifications))
        for packet in self._deferred_packets:
            self.packets.append(packet)
            self._early_packets.add(self._packet_key(packet))
        for c in self._deferred_classifications:
            self.classifications.append(c)
            self._early_classifications.add(self._classification_key(c))
        self._deferred_packets = []
        self._deferred_classifications = []
        return self

    def run(self, windows: Iterable[SampleBuffer]) -> "StreamingMonitor":
        """Process every window of a stream, then flush; returns self."""
        for window in windows:
            self.process(window)
        return self.flush()

    # -- events() hooks -------------------------------------------------------

    def _drain_new_packets(self) -> List[PacketRecord]:
        """Accumulated packets not yet yielded as events.

        ``self.packets`` is append-only in emission order, so a cursor
        into it is exact: every packet is yielded exactly once, the
        moment the frontier (or a flush/resync) finalizes it."""
        new = self.packets[self._event_cursor:]
        self._event_cursor = len(self.packets)
        return new

    def _final_packets(self, report: MonitorReport) -> List[PacketRecord]:
        return self._drain_new_packets()

    def _final_flush(self) -> List[PacketRecord]:
        self.flush()
        return self._drain_new_packets()

    def close(self) -> None:
        """Release the underlying monitor's worker pool, if any."""
        self.monitor.close()

    def __enter__(self) -> "StreamingMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
