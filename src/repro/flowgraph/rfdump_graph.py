"""RFDump assembled as a flowgraph — Figure 2 as an executable DAG.

The paper's prototype is literally a GNU Radio flowgraph; this module
wires the stages of a :class:`~repro.core.pipeline.RFDumpMonitor` up as
:mod:`repro.flowgraph` blocks:

    chunk source -> peak detector -> { protocol detectors } -> dispatcher
                 -> admission -> analysis -> report -> sink

Every block is one call to the monitor's stage method of the same name,
so the graph owns the *scheduling* of Figure 2 — which stage runs when,
the detector fan-out, the dispatcher fan-in — and none of its
behaviour: the detectors, dispatcher, decoders, error policy and
deadline layer are the monitor's own, and the report that reaches the
sink is the one :meth:`RFDumpMonitor.process` would return.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.core.detectors.base import Classification, Detector
from repro.core.pipeline import RFDumpMonitor, WindowState
from repro.dsp.samples import SampleBuffer
from repro.flowgraph.block import (
    ITEM_CHUNK,
    ITEM_CLASSIFICATION,
    ITEM_DETECTION,
    ITEM_DISPATCH,
    ITEM_PACKET,
    Block,
    FunctionBlock,
    IOSignature,
)
from repro.flowgraph.blocks import BufferChunkSource, CollectSink
from repro.flowgraph.graph import FlowGraph
from repro.util.timebase import Timebase


class PeakDetectionBlock(Block):
    """Protocol-agnostic stage: chunks in, the opened window out.

    Consumes the whole chunk stream (the detection stage tolerates
    latency — Section 2.2) and, at flush time, runs the monitor's peak
    detection over the reassembled buffer.
    """

    in_sig = IOSignature(ITEM_CHUNK, dtype=np.complex64)
    out_sig = IOSignature(ITEM_DETECTION)

    def __init__(self, monitor: RFDumpMonitor, timebase: Timebase,
                 name: str = "peak-detector"):
        super().__init__(name)
        self._monitor = monitor
        self._timebase = timebase
        self._chunks: List[np.ndarray] = []
        self._start = None

    def start(self) -> None:
        self._chunks = []
        self._start = None

    def work(self, item) -> Iterable:
        start_sample, chunk = item
        if self._start is None:
            self._start = start_sample
        self._chunks.append(np.asarray(chunk))
        return ()

    def finish(self) -> Iterable:
        if not self._chunks:
            return ()
        buffer = SampleBuffer(
            np.concatenate(self._chunks), self._timebase, self._start)
        return [self._monitor.detect_peaks(buffer)]


class DetectorBlock(Block):
    """Protocol-specific stage: one of the monitor's fast detectors."""

    in_sig = IOSignature(ITEM_DETECTION)
    out_sig = IOSignature(ITEM_CLASSIFICATION)

    def __init__(self, monitor: RFDumpMonitor, detector: Detector):
        super().__init__(detector.name)
        self._monitor = monitor
        self.detector = detector

    def work(self, window: WindowState) -> List[Classification]:
        return self._monitor.classify(self.detector, window)


class DispatcherBlock(Block):
    """Fan-in: gathers the detectors' classifications onto the window,
    then dispatches it."""

    in_sig = IOSignature(ITEM_DETECTION, ITEM_CLASSIFICATION)
    out_sig = IOSignature(ITEM_DISPATCH)

    def __init__(self, monitor: RFDumpMonitor, name: str = "dispatcher"):
        super().__init__(name)
        self._monitor = monitor
        self._window = None
        self._classifications: List[Classification] = []

    def start(self) -> None:
        self._window = None
        self._classifications = []

    def work(self, item) -> Iterable:
        if isinstance(item, Classification):
            self._classifications.append(item)
        else:
            self._window = item
        return ()

    def finish(self) -> Iterable:
        window = self._window
        if window is None:
            return ()
        window.classifications = self._classifications
        self._monitor.dispatch(window)
        return [window]


class StageBlock(Block):
    """A stage that advances the window in place and passes it on."""

    def __init__(self, name: str, stage, in_kind: str, out_kind: str):
        super().__init__(name)
        self._stage = stage
        self.in_sig = IOSignature(in_kind)
        self.out_sig = IOSignature(out_kind)

    def work(self, window: WindowState) -> List[WindowState]:
        self._stage(window)
        return [window]


def build_rfdump_graph(buffer: SampleBuffer, monitor: RFDumpMonitor):
    """Wire ``monitor``'s stages up for a buffer; returns ``(graph, reports)``.

    Run with ``graph.run()``; the window's
    :class:`~repro.core.pipeline.MonitorReport` — the one
    ``monitor.process(buffer)`` would return — lands in
    ``reports.items`` (an empty buffer streams no chunk and yields no
    report).  The monitor's ``obs`` sink also counts per-block items.
    """
    graph = FlowGraph(obs=monitor.obs)
    peaks = PeakDetectionBlock(monitor, buffer.timebase)
    dispatcher = DispatcherBlock(monitor)
    reports = CollectSink("reports")

    graph.chain(
        BufferChunkSource(buffer, monitor.peak_detector.config.chunk_samples),
        peaks,
    )
    graph.connect(peaks, dispatcher)  # the window itself
    for detector in monitor.detectors:
        block = DetectorBlock(monitor, detector)
        graph.connect(peaks, block)
        graph.connect(block, dispatcher)
    graph.chain(
        dispatcher,
        StageBlock("admission", monitor.admit, ITEM_DISPATCH, ITEM_DISPATCH),
        StageBlock("analysis", monitor.analyze, ITEM_DISPATCH, ITEM_PACKET),
        FunctionBlock(monitor.finish, "report"),
        reports,
    )
    return graph, reports
