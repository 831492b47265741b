"""Per-layer tracing installed from the benchmark's side of the fence.

The program has no spans at its layer boundaries yet, so the traced run
wraps each layer's *public* entry point — a class or module attribute —
with a timing wrapper, records spans into a
:class:`repro.obs.tracing.Tracer` (per-thread parent stack, so self
time is a span minus its children), and takes every wrapper off again
when the run ends.  Only calls made on the daemon's own threads
(``rfdumpd-*``) are recorded: the load generator and the in-process
comparison runs go through the same attributes and must not count.

Span names are the metric stems of the README's per-layer table; one
trace id per ingest window (``rep:window``) ties the ingest, pump and
subscriber threads' spans of that window together.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.decoders import BluetoothStreamDecoder, WifiStreamDecoder
from repro.core import detectors as detector_pkg
from repro.core.dispatcher import Dispatcher
from repro.core.events import PacketEvent
from repro.core.peak_detector import PeakDetector
from repro.core.pipeline import RFDumpMonitor
from repro.core.streaming import StreamingMonitor
from repro.obs.tracing import Span, Tracer
from repro.service import protocol
from repro.service.hub import EventHub, SubscriberQueue

_DAEMON_THREAD_PREFIX = "rfdumpd-"

#: span name for protocol frames no metric asks about (hello, end, eos)
_OTHER_FRAME = "service.protocol.other"


def _detector_classes() -> List[type]:
    """Every concrete detector class that defines its own ``classify``."""
    return [
        cls for cls in vars(detector_pkg).values()
        if isinstance(cls, type) and issubclass(cls, detector_pkg.Detector)
        and "classify" in vars(cls) and cls is not detector_pkg.Detector
    ]


class LayerTracer:
    """Installs, records and removes the per-layer wrappers."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self.rep = 0
        self._window = -1
        #: event seq -> window id, so subscriber-side spans find their trace
        self._event_window: Dict[int, int] = {}
        self._installed: List[Tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------------

    def targets(self) -> List[Tuple[object, str, str, Optional[Callable]]]:
        """``(owner, attribute, span name, after-hook)`` per wrapped callable."""
        out: List[Tuple[object, str, str, Optional[Callable]]] = [
            (protocol, "recv_frame", "service.protocol.window_decode",
             self._after_recv),
            (protocol, "decode_window", "service.protocol.window_decode",
             self._after_decode),
            (protocol, "send_frame", "service.protocol.event_write",
             self._after_send),
            (StreamingMonitor, "process", "core.streaming.process",
             self._after_stream_process),
            (RFDumpMonitor, "process", "core.pipeline.process",
             self._after_pipeline_process),
            (PeakDetector, "detect", "core.peak_detector.detect",
             self._after_detect),
            (Dispatcher, "dispatch", "core.dispatcher.dispatch",
             self._after_dispatch),
            (WifiStreamDecoder, "scan", "analysis.decoders.wifi_scan",
             self._after_scan("wifi")),
            (BluetoothStreamDecoder, "scan", "analysis.decoders.bluetooth_scan",
             self._after_scan("bluetooth")),
            (PacketEvent, "from_record", "core.events.encode",
             self._after_from_record),
            (PacketEvent, "to_dict", "core.events.encode", self._after_to_dict),
            (EventHub, "publish", "service.hub.publish", self._after_publish),
            (SubscriberQueue, "get", "service.hub.get_wait", self._after_get),
        ]
        out.extend(
            (cls, "classify", f"core.detectors.{cls.kind}", self._after_classify)
            for cls in _detector_classes()
        )
        return out

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("layer wrappers already installed")
        for owner, attr, name, after in self.targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(
                    self._wrap(original.__func__, name, after))
            else:
                # recv_frame idles between paced windows, so its cost is
                # its thread CPU time, not the span's wall time
                cpu = attr == "recv_frame"
                wrapper = self._wrap(original, name, after, cpu=cpu)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self.rep += 1
        self._window = -1

    def _wrap(self, func: Callable, name: str, after: Optional[Callable],
              cpu: bool = False) -> Callable:
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            thread = threading.current_thread()
            if not thread.name.startswith(_DAEMON_THREAD_PREFIX):
                return func(*args, **kwargs)
            # the ingest and subscriber handlers share a thread name
            worker = f"{thread.name}-{thread.native_id}"
            with tracer.span(name, "layer", worker=worker) as span:
                if cpu:
                    cpu0 = time.thread_time()
                result = func(*args, **kwargs)
                if cpu:
                    span.attrs["cpu_s"] = time.thread_time() - cpu0
                if after is not None:
                    after(span, args, result)
            return result

        return wrapper

    # -- after-hooks: counts and trace ids, where the work happens ------------

    def _tag(self, span: Span, window: int) -> None:
        span.attrs["trace"] = f"{self.rep}:{window}"

    def _after_recv(self, span, args, result) -> None:
        if result is None or result[0].get("type") != "window":
            span.name = _OTHER_FRAME
            return
        self.counts["ingest_bytes"] += len(result[1])
        self._tag(span, int(result[0].get("seq", -1)))

    def _after_decode(self, span, args, result) -> None:
        self._tag(span, int(args[0].get("seq", -1)))

    def _after_send(self, span, args, result) -> None:
        header = args[1]
        if header.get("type") != "event":
            span.name = _OTHER_FRAME
            return
        self._tag(span, self._event_window.get(header["event"]["seq"], -1))

    def _after_stream_process(self, span, args, result) -> None:
        # spans of one window close innermost first, so the window id
        # advances when the outermost one closes
        self._window += 1
        self.counts["samples_ingested"] += len(args[1])
        self._tag(span, self._window)

    def _after_pipeline_process(self, span, args, result) -> None:
        self.counts["samples_analysed"] += len(args[1])
        self._tag(span, self._window + 1)

    def _after_detect(self, span, args, result) -> None:
        self.counts["peaks"] += len(result.history)
        self._tag(span, self._window + 1)

    def _after_classify(self, span, args, result) -> None:
        self.counts["classifications"] += len(result)
        span.attrs["detector"] = type(args[0]).__name__
        self._tag(span, self._window + 1)

    def _after_dispatch(self, span, args, result) -> None:
        self.counts["ranges"] += sum(len(r) for r in result.values())
        self.counts["forwarded_samples"] += sum(
            Dispatcher.forwarded_samples(result).values())
        self._tag(span, self._window + 1)

    def _after_scan(self, proto: str) -> Callable:
        def after(span, args, result) -> None:
            self.counts[f"{proto}_ranges"] += 1
            self.counts[f"{proto}_samples"] += len(args[1])
            self.counts[f"{proto}_hits"] += bool(result)
            self._tag(span, self._window + 1)
        return after

    def _after_from_record(self, span, args, result) -> None:
        self.counts["events"] += 1
        self._event_window[result.seq] = self._window
        self._tag(span, self._window)

    def _after_to_dict(self, span, args, result) -> None:
        self._tag(span, self._event_window.get(args[0].seq, -1))

    def _after_publish(self, span, args, result) -> None:
        self._tag(span, self._window)

    def _after_get(self, span, args, result) -> None:
        if isinstance(result, PacketEvent):
            self._tag(span, self._event_window.get(result.seq, -1))

    # -- aggregation -----------------------------------------------------------

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(self seconds, total seconds)`` per span name.

        Self time is a span's duration minus the part its child spans
        cover; ``recv_frame`` spans contribute their thread CPU time.
        """
        spans = self.tracer.spans
        self_s = [s.attrs.get("cpu_s", s.duration) for s in spans]
        for span in spans:
            if span.parent is not None:
                self_s[span.parent] -= span.duration
        by_self: Dict[str, float] = Counter()
        by_total: Dict[str, float] = Counter()
        for span, own in zip(spans, self_s):
            by_self[span.name] += own
            by_total[span.name] += span.duration
        return by_self, by_total

    def busy_s(self) -> float:
        """Seconds the pump spent inside ``StreamingMonitor.process``."""
        return self.totals()[1]["core.streaming.process"]

    def span_cost_s(self, calls: int = 2000) -> float:
        """What one wrapper-and-span round trip costs on this host, now."""
        probe = LayerTracer()._wrap(lambda: None, "bench.calibration", None)
        cost: List[float] = []

        def loop() -> None:
            t0 = time.perf_counter()
            for _ in range(calls):
                probe()
            cost.append((time.perf_counter() - t0) / calls)

        thread = threading.Thread(
            target=loop, name=_DAEMON_THREAD_PREFIX + "calibrate")
        thread.start()
        thread.join()
        return cost[0]

    def metrics(self, ether_s: float) -> Dict[str, float]:
        """The span- and count-derived per-layer metrics.

        Times are per second of ether traced; counts are per traced pass
        (every pass sees the same windows, so they repeat exactly).
        """
        own, total = self.totals()
        counts = self.counts
        reps = max(self.rep, 1)

        def share(part: str, whole: str) -> float:
            return counts[part] / counts[whole] if counts[whole] else 0.0

        process_s = total["core.streaming.process"]
        glue_s = own["core.streaming.process"] + own["core.pipeline.process"]
        out = {
            "service.protocol.window_decode_s":
                own["service.protocol.window_decode"] / ether_s,
            "service.protocol.ingest_bytes": counts["ingest_bytes"] / reps,
            "core.streaming.process_s": process_s / ether_s,
            "core.streaming.self_s": own["core.streaming.process"] / ether_s,
            "core.streaming.overlap_amplification":
                share("samples_analysed", "samples_ingested"),
            "core.pipeline.self_s": own["core.pipeline.process"] / ether_s,
            "core.peak_detector.detect_s":
                own["core.peak_detector.detect"] / ether_s,
            "core.peak_detector.peaks": counts["peaks"] / reps,
            "core.detectors.timing_s": own["core.detectors.timing"] / ether_s,
            "core.detectors.phase_s": own["core.detectors.phase"] / ether_s,
            "core.detectors.classifications": counts["classifications"] / reps,
            "core.dispatcher.dispatch_s":
                own["core.dispatcher.dispatch"] / ether_s,
            "core.dispatcher.ranges": counts["ranges"] / reps,
            "core.dispatcher.forwarded_share":
                share("forwarded_samples", "samples_analysed"),
            "core.events.encode_s": own["core.events.encode"] / ether_s,
            "core.events.count": counts["events"] / reps,
            "service.hub.publish_s": own["service.hub.publish"] / ether_s,
            "service.hub.get_wait_s": own["service.hub.get_wait"] / ether_s,
            "service.protocol.event_write_s":
                own["service.protocol.event_write"] / ether_s,
            "bench.trace.unattributed_share": glue_s / process_s,
            # the wall difference between traced and untraced passes
            # cannot resolve a cost this small on a host whose identical
            # passes differ by 20%, so it is spans x the cost of one
            "bench.trace.overhead_share":
                len(self.tracer) * self.span_cost_s() / process_s,
        }
        for proto in ("wifi", "bluetooth"):
            stem = f"analysis.decoders.{proto}"
            out[f"{stem}_scan_s"] = own[f"{stem}_scan"] / ether_s
            out[f"{stem}_ranges"] = counts[f"{proto}_ranges"] / reps
            out[f"{stem}_samples"] = counts[f"{proto}_samples"] / reps
            out[f"{stem}_hit_share"] = share(f"{proto}_hits", f"{proto}_ranges")
        return out

    def write(self, out_dir: Path, stem: str) -> None:
        """Spans as JSONL plus a Chrome ``trace_event`` document."""
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.spans.jsonl").write_text(
            self.tracer.to_jsonl() + "\n")
        (out_dir / f"{stem}.chrome.json").write_text(
            json.dumps(self.tracer.to_chrome()))
