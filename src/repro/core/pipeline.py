"""The RFDump monitor: detection stage + dispatcher + analysis stage.

This is the architecture of Figure 2: a protocol-agnostic peak detector
(with integrated energy filtering), protocol-specific fast detectors over
the peak metadata (and, for phase detectors, small sample windows), a
dispatcher that forwards only classified chunk-aligned ranges, and
demodulating analyzers that decode those ranges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_CENTER_FREQ
from repro.analysis.decoders import PacketRecord, make_decoder
from repro.core.accounting import StageClock
from repro.core.config import MonitorConfig, resolve_monitor_config
from repro.core.monitor import Monitor
from repro.core.detectors import (
    BluetoothTimingDetector,
    DbpskPhaseDetector,
    GfskPhaseDetector,
    MicrowaveTimingDetector,
    OfdmCyclicPrefixDetector,
    WifiDifsTimingDetector,
    WifiSifsTimingDetector,
    ZigbeeTimingDetector,
)
from repro.core.detectors.base import Classification, Detector
from repro.core.dispatcher import DispatchedRange, Dispatcher
from repro.core.errorpolicy import CircuitBreaker, ErrorRecord, sanitize_nonfinite
from repro.core.metadata import Peak, PeakHistory
from repro.core.peak_detector import PeakDetectionResult, PeakDetector, PeakDetectorConfig
from repro.dsp.energy import instant_power
from repro.dsp.samples import SampleBuffer
from repro.errors import DecoderCrashError, DetectorCrashError
from repro.obs import NULL


def default_detectors(protocols: Sequence[str], kinds: Sequence[str],
                      center_freq: float = DEFAULT_CENTER_FREQ) -> List[Detector]:
    """The prototype's detector set for a protocol/kind selection.

    ``kinds`` picks among "timing" and "phase" (Section 5.2 evaluates
    timing-only, phase-only and combined configurations).
    """
    out: List[Detector] = []
    for protocol in protocols:
        if protocol == "wifi":
            if "timing" in kinds:
                out.append(WifiSifsTimingDetector())
                out.append(WifiDifsTimingDetector())
            if "phase" in kinds:
                out.append(DbpskPhaseDetector())
        elif protocol == "bluetooth":
            if "timing" in kinds:
                out.append(BluetoothTimingDetector())
            if "phase" in kinds:
                out.append(GfskPhaseDetector(center_freq=center_freq))
            if "frequency" in kinds:
                from repro.core.detectors import BluetoothFrequencyDetector

                out.append(BluetoothFrequencyDetector(center_freq=center_freq))
        elif protocol == "zigbee":
            if "timing" in kinds:
                out.append(ZigbeeTimingDetector())
        elif protocol == "microwave":
            if "timing" in kinds:
                out.append(MicrowaveTimingDetector())
        elif protocol == "ofdm":
            if "phase" in kinds:
                out.append(OfdmCyclicPrefixDetector())
        else:
            raise ValueError(f"no default detectors for protocol {protocol!r}")
    return out


def packet_sort_key(packet: PacketRecord) -> Tuple:
    """Total order on a window's decoded packets.

    Dispatched ranges never overlap within a protocol, so sorting by
    position (with protocol/decoder tie-breaks for simultaneous
    cross-protocol transmissions) orders the packets by where they are
    in the ether, not by which protocol's ranges were decoded first.
    """
    return (
        packet.start_sample,
        packet.end_sample,
        packet.protocol,
        packet.decoder,
        -1 if packet.channel is None else packet.channel,
    )


@dataclass
class MonitorReport:
    """Everything one monitoring pass produced."""

    total_samples: int
    duration: float
    peaks: Optional[PeakHistory]
    classifications: List[Classification]
    ranges: Dict[str, List[DispatchedRange]]
    packets: List[PacketRecord]
    clock: StageClock
    noise_floor: Optional[float] = None
    #: classifications the dispatch stage did not forward (contested
    #: peaks, see :meth:`RFDumpMonitor.dispatch`); ``classifications``
    #: still holds them
    overruled: List[Classification] = field(default_factory=list)
    #: samples that reached the peak detector's fine energy gate (0 for a
    #: monitor without a detection stage)
    gated_samples: int = 0
    #: of those, the samples whose moving average the gate evaluated
    exact_samples: int = 0
    #: thread CPU time spent demodulating each protocol (feeds the
    #: parallelism estimate of Section 2.2)
    demod_seconds_by_protocol: Dict[str, float] = field(default_factory=dict)
    #: faults the error-policy layer handled while producing this report
    #: (detector and decoder crashes, stream degradations); empty on a
    #: clean run and in "raise" mode, where faults raise instead
    errors: List[ErrorRecord] = field(default_factory=list)
    #: detectors quarantined by the circuit breaker at report time
    quarantined_detectors: Tuple[str, ...] = ()
    #: end-to-end wall latency of this window's pass through the pipeline
    latency_seconds: float = 0.0
    #: what a streamed window left open for the next (None one-shot)
    seam: Optional["Seam"] = None
    #: the pass a stream gap or a skipped window forced before this one,
    #: over what the seam held open (its own peaks, ranges and packets)
    closed: Optional["MonitorReport"] = None

    @classmethod
    def empty(cls, noise_floor: Optional[float] = None,
              errors: Iterable[ErrorRecord] = ()) -> "MonitorReport":
        """The report of a pass that analysed nothing."""
        return cls(total_samples=0, duration=0.0, peaks=None,
                   classifications=[], ranges={}, packets=[],
                   clock=StageClock(), noise_floor=noise_floor,
                   errors=list(errors))

    def passes(self) -> List["MonitorReport"]:
        """The pipeline passes this report holds, in order: the forced
        close pass, if any, then this one."""
        return [self] if self.closed is None else [self.closed, self]

    @property
    def last_error(self) -> Optional[ErrorRecord]:
        """The most recent handled fault, or None for a clean window."""
        return self.errors[-1] if self.errors else None

    @property
    def degraded(self) -> bool:
        """True when any stage recovered from a fault for this report."""
        return bool(self.errors)

    def classifications_for(self, protocol: str) -> List[Classification]:
        return [c for c in self.classifications if c.protocol == protocol]

    def unclassified_peaks(self):
        """Peaks no detector claimed — unknown RF activity worth a look.

        The tool's reason to exist is seeing *everything* in the ether;
        energy that matches no known protocol signature is itself a
        finding (a misbehaving device, a technology without a detector).
        """
        if self.peaks is None:
            return []
        claimed = {c.peak.index for c in self.classifications}
        return [p for p in self.peaks if p.index not in claimed]

    def packets_for(self, protocol: str) -> List[PacketRecord]:
        return [p for p in self.packets if p.protocol == protocol]

    def forwarded_samples(self, protocol: Optional[str] = None) -> int:
        if protocol is not None:
            return sum(r.length for r in self.ranges.get(protocol, []))
        return sum(r.length for rs in self.ranges.values() for r in rs)

    def forwarded_ranges(self, protocol: str) -> List[Tuple[int, int]]:
        return [(r.start_sample, r.end_sample) for r in self.ranges.get(protocol, [])]

    def ranges_decoded(self, protocol: str) -> int:
        """Dispatched ranges of ``protocol`` that a packet decoded in this
        report overlaps (the hit-share numerator)."""
        spans = [(p.start_sample, p.end_sample) for p in self.packets
                 if p.protocol == protocol]
        return sum(
            any(start < r.end_sample and end > r.start_sample
                for start, end in spans)
            for r in self.ranges.get(protocol, []))

    @property
    def cpu_over_realtime(self) -> float:
        """CPU time / real time; 0.0 for a zero-duration (empty) buffer
        — there is no real time to be a ratio of, and ``inf``/raising
        would poison aggregations over per-window reports."""
        if self.duration <= 0:
            return 0.0
        return self.clock.cpu_over_realtime(self.duration)


@dataclass
class Seam:
    """What a streamed window leaves open at its end for the next one.

    A peak whose active samples reach the window's last ``min_gap``
    samples may still grow, and a range ending in the window's last
    chunk may still merge with the next window's first peak; every
    other peak and range is final.  The seam carries only what the open
    ones need: the samples from the chunk-aligned start of the earliest
    open range, or of the open peak less its gate context (none when the
    window ends in silence); the final peaks of the last ``limit``
    samples, which the timing detectors read back to; and the forwarded
    classifications of final peaks inside an open range.
    """

    #: carried samples, ``[start, end of the window)``; empty when
    #: nothing is open, but its end still marks where the stream is
    buffer: SampleBuffer
    #: most samples ``buffer`` may hold (and how far back ``peaks`` go)
    limit: int
    #: a peak ending at or before this sample is final
    closed_to: int
    peaks: List[Peak] = field(default_factory=list)
    classifications: List[Classification] = field(default_factory=list)
    #: the part before ``buffer`` of an open peak too long to carry
    #: whole; the next window's first peak continues it
    head: Optional[Peak] = None
    #: close every range at the end of the next pass: the stream ends
    #: or breaks there
    final: bool = False


@dataclass
class WindowState:
    """One window on its way through the stages of :class:`RFDumpMonitor`.

    Peak detection opens it; each later stage reads what earlier stages
    left here and fills in its own part, so :meth:`RFDumpMonitor.process`
    only decides *when* a stage runs.
    """

    #: the samples every stage after peak detection reads (the
    #: sanitized copy when the gate zeroed non-finite samples)
    buffer: SampleBuffer
    detection: PeakDetectionResult
    clock: StageClock
    #: ``perf_counter`` reading when the window entered the monitor
    started: float
    errors: List[ErrorRecord] = field(default_factory=list)
    classifications: List[Classification] = field(default_factory=list)
    #: classifications dispatch resolved against (never forwarded)
    overruled: List[Classification] = field(default_factory=list)
    #: what the dispatcher produced: the ranges the analysis stage decodes
    ranges: Dict[str, List[DispatchedRange]] = field(default_factory=dict)
    packets: List[PacketRecord] = field(default_factory=list)
    demod_seconds: Dict[str, float] = field(default_factory=dict)
    #: forwarded classifications of final peaks a seam carried in
    carried: List[Classification] = field(default_factory=list)
    #: what dispatch forwarded, carried claims included
    forwarded: List[Classification] = field(default_factory=list)
    #: peaks first final in this window (streamed; None: the whole history)
    peaks: Optional[PeakHistory] = None
    seam: Optional[Seam] = None


class RFDumpMonitor(Monitor):
    """The full RFDump pipeline over recorded traces.

    Configuration is a :class:`~repro.core.config.MonitorConfig`, given
    either as ``config=`` or as its fields spelled out as keywords
    (``RFDumpMonitor(protocols=("wifi",), demodulate=False)``) — never
    both.
    The fields that shape this monitor:

    protocols / kinds:
        Protocol families to monitor, and which fast-detector families
        to run ("timing", "phase").
    demodulate:
        When False, stop after dispatch — the "no demodulation"
        configurations of Figure 9.
    on_error:
        What a crashing detector or decoder costs (see
        :meth:`classify` and :meth:`analyze`).
    obs:
        The metrics/tracing sink for the whole pipeline.

    ``detectors`` (explicit detector instances, overriding the defaults)
    and ``peak_config`` are this monitor's own extras.
    """

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        *,
        detectors: Optional[Iterable[Detector]] = None,
        peak_config: Optional[PeakDetectorConfig] = None,
        **fields,
    ):
        cfg = resolve_monitor_config(config, **fields)
        self.config = cfg
        self.obs = cfg.obs
        self.on_error = cfg.on_error
        # quarantines detectors that crash repeatedly (skip/degrade modes)
        self._breaker = CircuitBreaker()
        self.sample_rate = cfg.sample_rate
        self.center_freq = cfg.center_freq
        self.protocols = cfg.protocols
        self.kinds = cfg.kinds
        self.demodulate = cfg.demodulate
        self.noise_floor = cfg.noise_floor
        self.peak_detector = PeakDetector(peak_config, obs=self.obs)
        self.dispatcher = Dispatcher(
            self.peak_detector.config.chunk_samples, obs=self.obs
        )
        if detectors is None:
            detectors = default_detectors(
                self.protocols, self.kinds, self.center_freq
            )
        self.detectors = list(detectors)
        #: protocol -> stream decoder, for the protocols that have one
        #: (microwave's classification is its output); empty with
        #: ``demodulate=False``
        self.decoders: Dict[str, object] = {}
        if cfg.demodulate:
            for protocol in self.protocols:
                decoder = make_decoder(protocol, self.sample_rate,
                                       self.center_freq)
                if decoder is not None:
                    self.decoders[protocol] = decoder

    # -- stages (Figure 2, in order) ------------------------------------------
    #
    # Peak detection opens a WindowState and each later stage advances
    # it in place.  process() below runs them back to back: Figure 2's
    # graph is fixed, so its schedule is a straight line.

    def detect_peaks(self, buffer: SampleBuffer) -> WindowState:
        """Open a window with protocol-agnostic peak detection.

        Applies the non-finite policy: when the gate zeroed NaN/Inf
        samples, the window carries the sanitized copy of ``buffer`` — a
        short hole does not split a peak, so the bad sample can sit
        inside one, and every later stage, detectors and demodulators
        alike, must read the zero the gate saw.
        """
        obs = self.obs or NULL
        obs.counter(
            "rfdump_samples_total", help="samples entering the monitor"
        ).inc(len(buffer))
        started = time.perf_counter()
        clock = StageClock(obs=self.obs)
        with obs.span("peak_detection", start_sample=buffer.start_sample,
                      end_sample=buffer.end_sample):
            with clock.stage("peak_detection"):
                detection = self.peak_detector.detect(buffer, self.noise_floor)
                clock.touch("peak_detection", len(buffer))
        w = WindowState(buffer, detection, clock, started)
        w.buffer = sanitize_nonfinite(
            buffer, detection.nonfinite_samples, "detector", "PeakDetector",
            self.on_error, w.errors)
        return w

    def classify(self, detector: Detector,
                 w: WindowState) -> List[Classification]:
        """Run one fast detector under the circuit breaker and error policy.

        A detector that crashes is skipped for the window (and, after
        repeated crashes, quarantined for the monitor's lifetime) under
        the skip/degrade policies instead of killing the window.
        """
        if self._breaker.is_open(detector.name):
            return []  # quarantined after repeated crashes
        obs = self.obs or NULL
        buffer = w.buffer
        try:
            with obs.span(detector.name, category="detector",
                          kind=detector.kind, protocol=detector.protocol):
                with w.clock.stage(f"{detector.kind}_detection"):
                    found = detector.classify(w.detection, buffer)
        except Exception as exc:
            if self.on_error is None:
                raise  # legacy: programming errors propagate unwrapped
            if self.on_error == "raise":
                raise DetectorCrashError(
                    f"detector {detector.name} failed on "
                    f"[{buffer.start_sample}, {buffer.end_sample}): "
                    f"{exc}", detector=detector.name,
                ) from exc
            w.errors.append(ErrorRecord.from_exception(
                stage="detector", component=detector.name, exc=exc,
                action="quarantined", start_sample=buffer.start_sample,
                end_sample=buffer.end_sample,
            ))
            obs.counter(
                "rfdump_detector_errors_total",
                help="detector crashes absorbed per-window by the "
                     "error policy",
                detector=detector.name,
            ).inc()
            if self._breaker.record_failure(detector.name):
                obs.counter(
                    "rfdump_detector_circuit_trips_total",
                    help="detectors quarantined for the monitor's "
                         "lifetime after repeated crashes",
                ).inc()
                obs.gauge(
                    "rfdump_detector_circuit_open",
                    help="1 while a detector is quarantined by the "
                         "circuit breaker",
                    detector=detector.name,
                ).set(1)
            return []
        self._breaker.record_success(detector.name)
        return found

    def dispatch(self, w: WindowState) -> None:
        """Resolve contested peaks, then merge the classifications left
        into per-protocol chunk-aligned ranges.

        A peak is *contested* when a timing detector calls it Bluetooth,
        this monitor's :class:`DbpskPhaseDetector` calls it 802.11b, and
        no Bluetooth phase or frequency detector backs the timing claim —
        Table 3's observation (b): pings whose spacing is a multiple of
        the 625 us slot.  The Barker test re-scored on the peak's tail
        decides it.  Chipping to the end overrules the timing claim,
        which then reaches no demodulator; a tail that fails the test
        keeps it, because the tail of an ACK fused with a longer
        Bluetooth packet behind it is GFSK.
        """
        obs = self.obs or NULL
        with obs.span("dispatch"), w.clock.stage("dispatch"):
            claims = w.carried + w.classifications
            w.overruled = self._contested_timing_claims(claims, w.buffer)
            dropped = {id(c) for c in w.overruled}
            w.forwarded = [c for c in claims if id(c) not in dropped]
            w.ranges = self.dispatcher.dispatch(
                w.forwarded, w.buffer.end_sample, w.buffer.start_sample
            )

    def _contested_timing_claims(self, claims: List[Classification],
                                 buffer: SampleBuffer) -> List[Classification]:
        """The Bluetooth timing claims :meth:`dispatch` overrules."""
        barker = next((d for d in self.detectors
                       if isinstance(d, DbpskPhaseDetector)), None)
        if barker is None:
            return []
        chipped = {c.peak.index for c in claims if c.detector == barker.name}
        if not chipped:
            return []
        kinds = {d.name: d.kind for d in self.detectors}
        backed = {c.peak.index for c in claims
                  if c.protocol == "bluetooth"
                  and kinds.get(c.detector) in ("phase", "frequency")}
        return [c for c in claims
                if c.protocol == "bluetooth"
                and kinds.get(c.detector) == "timing"
                and c.peak.index in chipped
                and c.peak.index not in backed
                and barker.tail_matches(c.peak, buffer)]

    def analyze(self, w: WindowState) -> None:
        """Demodulate every dispatched range, inline, by position:
        ``(protocol, start_sample)``.

        Each range's decode runs in a ``demod[<protocol>]`` span and is
        timed on this thread's CPU clock; the packets end sorted by
        :func:`packet_sort_key`.

        A decoder that raises is handled like a detector in
        :meth:`classify`: with no policy the exception propagates;
        ``"raise"`` raises :class:`~repro.errors.DecoderCrashError`;
        ``"skip"`` and ``"degrade"`` leave one ``ErrorRecord(
        stage="analysis", action="skipped")`` over the range's samples
        and decode the ranges left.
        """
        if not self.demodulate:
            return
        obs = self.obs or NULL
        with obs.span("analysis"):
            for protocol in sorted(w.ranges):
                decoder = self.decoders.get(protocol)
                if decoder is None:
                    continue
                for r in w.ranges[protocol]:
                    buffer = w.buffer.slice(r.start_sample, r.end_sample)
                    with obs.span(f"demod[{protocol}]", category="range",
                                  start_sample=buffer.start_sample,
                                  end_sample=buffer.end_sample,
                                  protocol=protocol):
                        started = time.thread_time()
                        try:
                            packets = list(decoder.scan(
                                buffer, channel_hint=r.channel))
                        except Exception as exc:
                            if self.on_error is None:
                                raise
                            self._decoder_failed(protocol, buffer, exc, w)
                            continue
                        seconds = time.thread_time() - started
                    w.packets.extend(packets)
                    w.clock.add("demodulation", seconds)
                    w.clock.touch("demodulation", len(buffer))
                    w.demod_seconds[protocol] = (
                        w.demod_seconds.get(protocol, 0.0) + seconds)
        w.packets.sort(key=packet_sort_key)

    def _decoder_failed(self, protocol: str, buffer: SampleBuffer,
                        exc: Exception, w: WindowState) -> None:
        """A decoder raised on a range: raise it typed, or record it."""
        if self.on_error == "raise":
            raise DecoderCrashError(
                f"{protocol} decoder failed on [{buffer.start_sample}, "
                f"{buffer.end_sample}): {exc}", protocol=protocol,
            ) from exc
        w.errors.append(ErrorRecord.from_exception(
            stage="analysis", component=protocol, exc=exc, action="skipped",
            start_sample=buffer.start_sample, end_sample=buffer.end_sample,
        ))

    def finish(self, w: WindowState) -> MonitorReport:
        """Annotate the packets with SNR, close the window's latency
        accounting, and assemble the report."""
        obs = self.obs or NULL
        self._annotate_snr(w.packets, w.detection)
        for c in w.classifications:
            obs.counter(
                "rfdump_classifications_total",
                help="peak classifications by protocol",
                protocol=c.protocol,
            ).inc()
        for c in w.overruled:
            obs.counter(
                "rfdump_classifications_overruled_total",
                help="classifications the dispatch stage did not forward "
                     "because an independent detector contradicted them",
                protocol=c.protocol,
            ).inc()
        for packet in w.packets:
            obs.counter(
                "rfdump_packets_decoded_total",
                help="packets the analysis stage decoded",
                protocol=packet.protocol,
            ).inc()
        latency = time.perf_counter() - w.started
        obs.histogram(
            "rfdump_window_latency_seconds",
            help="end-to-end monitor latency per processed window "
                 "(detection through analysis)",
        ).observe(latency)
        report = MonitorReport(
            total_samples=len(w.buffer),
            duration=w.buffer.duration,
            peaks=w.detection.history if w.peaks is None else w.peaks,
            classifications=w.classifications,
            ranges=w.ranges,
            packets=w.packets,
            clock=w.clock,
            noise_floor=w.detection.noise_floor,
            overruled=w.overruled,
            gated_samples=w.detection.gated_samples,
            exact_samples=w.detection.exact_samples,
            demod_seconds_by_protocol=w.demod_seconds,
            errors=w.errors,
            quarantined_detectors=self._breaker.open_components,
            latency_seconds=latency,
            seam=w.seam,
        )
        for protocol in w.ranges:
            obs.counter(
                "rfdump_ranges_decoded_total",
                help="dispatched ranges a decoded packet overlaps (hit "
                     "share = this / rfdump_ranges_dispatched_total)",
                protocol=protocol,
            ).inc(report.ranges_decoded(protocol))
        return report

    @staticmethod
    def _annotate_snr(packets: List[PacketRecord],
                      detection: PeakDetectionResult) -> None:
        """Attach per-packet SNR/RSSI estimates from the overlapping peak.

        The peak detector already measured each transmission's mean power;
        relative to the tracked noise floor that is the SNR the monitor
        experienced — the quantity the accuracy figures sweep.  The raw
        mean power in dB doubles as the radiotap-style RSSI the event
        stream carries.
        """
        floor = max(detection.noise_floor, 1e-30)
        starts = detection.history.starts
        ends = detection.history.ends
        for packet in packets:
            hit = np.flatnonzero(
                (starts < packet.end_sample) & (ends > packet.start_sample)
            )
            if hit.size == 0:
                continue
            peak = detection.history[int(hit[0])]
            power = max(peak.mean_power, 1e-30)
            packet.info["snr_db"] = round(10 * np.log10(power / floor), 1)
            packet.info["rssi_db"] = round(10 * np.log10(power), 1)

    # -- drivers --------------------------------------------------------------

    def process(self, buffer: SampleBuffer,
                seam: Optional[Seam] = None) -> MonitorReport:
        """Run the full pipeline over a buffer.

        With a ``seam`` (streaming; ``buffer`` then starts with its
        carried samples) the buffer is one window of a stream: the
        seam's final peaks and classifications join the window's, only
        ranges final at its end are demodulated, and the report's
        ``seam`` holds what is still open.
        """
        obs = self.obs or NULL
        with obs.span("process", start_sample=buffer.start_sample,
                      end_sample=buffer.end_sample):
            w = self.detect_peaks(buffer)
            new = self._join(w, seam) if seam is not None else 0
            for detector in self.detectors:
                w.classifications.extend(self.classify(detector, w))
            if new:
                w.classifications = [c for c in w.classifications
                                     if c.peak.index >= new]
            self.dispatch(w)
            trim = self._hold(w, seam, new) if seam is not None else None
            self.analyze(w)
            if trim is not None:
                self._carry(w, trim)
        return self.finish(w)

    # -- the streaming seam ---------------------------------------------------

    def _join(self, w: WindowState, seam: Seam) -> int:
        """Put the seam's final peaks ahead of the window's new ones and
        its classifications on them; returns the first new peak's index.

        The window's samples up to ``seam.closed_to`` were analysed
        before: peaks ending there are the seam's (re-detected, they may
        be cut at the buffer's start), and a later one is new.
        """
        history = w.detection.history
        first = int(np.searchsorted(history.ends, seam.closed_to, "right"))
        carried = [p for p in seam.peaks if p.end_sample <= seam.closed_to]
        fresh = list(history)[first:]
        head = seam.head
        cfg = self.peak_detector.config
        if head is not None and fresh and fresh[0].start_sample < (
                w.buffer.start_sample + cfg.energy_window + cfg.min_gap):
            # the overlong peak the seam cut: one peak again, its power
            # summed over both parts
            p = fresh[0]
            fresh[0] = Peak(head.start_sample, p.end_sample,
                            (head.mean_power * head.length
                             + p.mean_power * p.length)
                            / (p.end_sample - head.start_sample),
                            max(head.peak_power, p.peak_power))
        elif not (carried or first):
            return 0
        joined = PeakHistory(history.sample_rate)
        for p in carried + fresh:
            joined.append(p.start_sample, p.end_sample, p.mean_power,
                          p.peak_power)
        w.detection.history = joined
        index = {p.start_sample: i for i, p in enumerate(carried)}
        w.carried = [replace(c, peak=replace(
            c.peak, index=index[c.peak.start_sample]))
            for c in seam.classifications]
        return len(carried)

    def _hold(self, w: WindowState, seam: Seam,
              new: int) -> Optional[Seam]:
        """Keep the ranges still open at the window's end out of this
        pass and put them, with what they need, on ``w.seam``.

        Open: a range ending in the chunk where the window's open
        activity starts, or later (the next window's first peak could
        merge with it).  When carrying them would take more than
        ``seam.limit`` samples, what is final closes now and only the
        open peak is carried, to be classified afresh; when the open
        peak alone is longer, everything closes and the seam carries
        the last ``limit`` samples past the packets decoded now
        (:meth:`_carry`; the seam is returned for it); when ``seam.final`` says
        the stream ends or breaks here, everything closes and nothing is
        carried.
        """
        cfg = self.peak_detector.config
        cs = cfg.chunk_samples
        end = w.buffer.end_sample
        closed_to = end - cfg.min_gap
        history = w.detection.history
        edge = peak_from = end
        overlong = False
        if w.detection.open_start is not None:
            edge = w.detection.open_start
            # re-detected next time: give its leading edge the gate's
            # context and a gap no cut run before it can merge across
            peak_from = max((edge - cfg.energy_window - cfg.min_gap)
                            // cs * cs, w.buffer.start_sample)
        bound = edge // cs * cs
        open_lo = {protocol: next((r.start_sample for r in rs
                                   if r.end_sample >= bound), end)
                   for protocol, rs in w.ranges.items()}
        start = min([peak_from, *open_lo.values()])
        final = [c for c in w.forwarded
                 if c.peak.start_sample >= open_lo.get(c.protocol, end)
                 and history[c.peak.index].end_sample <= closed_to]
        if seam.final:
            start = closed_to = end
            final = []
        elif end - peak_from > seam.limit:
            start = -(-(end - seam.limit) // cs) * cs
            final, overlong = [], True
        elif end - start > seam.limit:
            closing = self.dispatcher.dispatch(final, end,
                                               w.buffer.start_sample)
            w.ranges = {protocol: [r for r in w.ranges[protocol]
                                   if r.start_sample < open_lo[protocol]]
                        + closing.get(protocol, [])
                        for protocol in w.ranges}
            start, final = peak_from, []
        elif start < end:
            w.ranges = {protocol: [r for r in rs
                                   if r.start_sample < open_lo[protocol]]
                        for protocol, rs in w.ranges.items()}
        w.ranges = {protocol: rs for protocol, rs in w.ranges.items() if rs}
        done = [p for p in list(history)[new:] if p.end_sample <= closed_to]
        w.peaks = PeakHistory.of(history.sample_rate, done)
        indices = {p.index for p in done}
        w.classifications = [c for c in w.classifications
                             if c.peak.index in indices]
        w.overruled = [c for c in w.overruled if c.peak.index in indices]
        w.seam = Seam(
            buffer=w.buffer.slice(start, end), limit=seam.limit,
            closed_to=closed_to,
            peaks=[p for p in history
                   if end - seam.limit < p.end_sample <= closed_to],
            classifications=final)
        return w.seam if overlong else None

    def _carry(self, w: WindowState, seam: Seam) -> None:
        """After an overlong open peak closed every range: start the
        carried samples past every packet decoded from them, so the next
        window decodes only what did not end in this one."""
        cs = self.peak_detector.config.chunk_samples
        carry = seam.buffer
        start = max([carry.start_sample]
                    + [p.end_sample // cs * cs for p in w.packets])
        seam.buffer = carry.slice(start, carry.end_sample)
        history = w.detection.history
        peak = history[-1] if len(history) else None
        if peak is not None and peak.start_sample < start < peak.end_sample:
            rest = float(instant_power(
                w.buffer.slice(start, peak.end_sample).samples).sum())
            seam.head = Peak(
                peak.start_sample, start,
                (peak.mean_power * peak.length - rest)
                / (start - peak.start_sample), peak.peak_power)

    def detect(self, buffer: SampleBuffer) -> Tuple[
        PeakDetectionResult, List[Classification]
    ]:
        """Run the detection stage only (faults the skip/degrade
        policies absorb are dropped with the window state)."""
        w = self.detect_peaks(buffer)
        for detector in self.detectors:
            w.classifications.extend(self.classify(detector, w))
        return w.detection, w.classifications

    # -- lifecycle ------------------------------------------------------------

    @property
    def quarantined_detectors(self) -> Tuple[str, ...]:
        """Detectors the circuit breaker has taken out of rotation."""
        return self._breaker.open_components

    def readmit_detectors(self) -> None:
        """Clear the circuit breaker, giving quarantined detectors
        another ``threshold`` consecutive chances."""
        self._breaker.reset()
