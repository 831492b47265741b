"""RFDump assembled as a flowgraph — Figure 2 as an executable DAG.

The paper's prototype is literally a GNU Radio flowgraph; this module
composes the same pipeline from :mod:`repro.flowgraph` blocks:

    chunk source -> peak detector -> { protocol detectors } -> dispatcher
                 -> { protocol analyzers } -> packet sink

:class:`~repro.core.pipeline.RFDumpMonitor` remains the convenient batch
API; this assembly demonstrates (and tests) that the architecture
decomposes into independently schedulable blocks communicating through
chunk/metadata items, as in the original implementation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.constants import (
    DEFAULT_CENTER_FREQ,
    DEFAULT_CHUNK_SAMPLES,
    DEFAULT_ENERGY_WINDOW,
)
from repro.core.detectors.base import Classification, Detector
from repro.core.dispatcher import Dispatcher
from repro.core.peak_detector import PeakDetector, PeakDetectorConfig
from repro.core.pipeline import default_detectors
from repro.dsp.samples import SampleBuffer
from repro.flowgraph.block import (
    ITEM_CHUNK,
    ITEM_CLASSIFICATION,
    ITEM_DETECTION,
    ITEM_DISPATCH,
    ITEM_PACKET,
    Block,
    IOSignature,
)
from repro.flowgraph.blocks import (
    BufferChunkSource,
    ChunkMeanBlock,
    ClampBlock,
    CollectSink,
    DcRemovalBlock,
    GainBlock,
    MovingAverageBlock,
    PowerBlock,
)
from repro.flowgraph.graph import FlowGraph
from repro.util.timebase import Timebase


class PeakDetectionBlock(Block):
    """Protocol-agnostic stage: chunks in, (detection, buffer) out.

    Consumes the whole chunk stream (the detection stage tolerates
    latency — Section 2.2) and emits one detection result at flush time.
    """

    in_sig = IOSignature(ITEM_CHUNK, dtype=np.complex64)
    out_sig = IOSignature(ITEM_DETECTION)

    def __init__(self, sample_rate: float,
                 config: Optional[PeakDetectorConfig] = None,
                 noise_floor: Optional[float] = None,
                 name: str = "peak-detector"):
        super().__init__(name)
        self._detector = PeakDetector(config)
        self._sample_rate = sample_rate
        self._noise_floor = noise_floor
        self._chunks = []
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
        samples = np.concatenate(self._chunks)
        buffer = SampleBuffer(samples, Timebase(self._sample_rate), self._start)
        detection = self._detector.detect(buffer, self._noise_floor)
        if detection.nonfinite_samples:
            buffer = buffer.finite()  # downstream reads what the gate saw
        return [(detection, buffer)]


class DetectorBlock(Block):
    """Protocol-specific stage: wraps one fast detector."""

    in_sig = IOSignature(ITEM_DETECTION)
    out_sig = IOSignature(ITEM_CLASSIFICATION)

    def __init__(self, detector: Detector):
        super().__init__(detector.name)
        self._detector = detector

    def work(self, item) -> List[Classification]:
        detection, buffer = item
        return list(self._detector.classify(detection, buffer))


class DispatcherBlock(Block):
    """Collects classifications; emits per-protocol dispatched ranges."""

    in_sig = IOSignature(ITEM_DETECTION, ITEM_CLASSIFICATION)
    out_sig = IOSignature(ITEM_DISPATCH)

    def __init__(self, chunk_samples: int, name: str = "dispatcher"):
        super().__init__(name)
        self._dispatcher = Dispatcher(chunk_samples)
        self._classifications: List[Classification] = []
        self._bounds = None

    def start(self) -> None:
        self._classifications = []
        self._bounds = None

    def work(self, item) -> Iterable:
        if isinstance(item, Classification):
            self._classifications.append(item)
        else:  # the (detection, buffer) passthrough defines the bounds
            detection, buffer = item
            self._bounds = (buffer.start_sample, buffer.end_sample)
            self._buffer = buffer
        return ()

    def finish(self) -> Iterable:
        if self._bounds is None:
            return ()
        start, end = self._bounds
        ranges = self._dispatcher.dispatch(self._classifications, end, start)
        out = []
        for protocol, proto_ranges in ranges.items():
            for rng in proto_ranges:
                out.append((protocol, rng, self._buffer))
        return out


class AnalyzerBlock(Block):
    """Analysis stage: demodulates ranges dispatched to its protocol."""

    in_sig = IOSignature(ITEM_DISPATCH)
    out_sig = IOSignature(ITEM_PACKET)

    def __init__(self, protocol: str, decoder):
        super().__init__(f"{protocol}-analyzer")
        self.protocol = protocol
        self._decoder = decoder

    def work(self, item) -> Iterable:
        protocol, rng, buffer = item
        if protocol != self.protocol:
            return ()
        sub = buffer.slice(rng.start_sample, rng.end_sample)
        if self.protocol == "bluetooth":
            return self._decoder.scan(sub, channel_hint=rng.channel)
        return self._decoder.scan(sub)


def build_frontend_graph(
    buffer: SampleBuffer,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    gain: float = 1.0,
    agc: float = 1.0,
    window: int = DEFAULT_ENERGY_WINDOW,
    slow_window: int = 4 * DEFAULT_ENERGY_WINDOW,
    mean_chunk: int = DEFAULT_CHUNK_SAMPLES,
    saturation: float = 1e6,
    obs=None,
):
    """The front-end conditioning chain; returns ``(graph, sink)``.

    An eight-stage linear pipeline of chunk kernels —

        source -> gain -> dc-removal -> agc -> power -> clamp
               -> ma-short -> ma-long -> chunk-mean -> sink

    — front-end scaling, DC blocking, gain normalization, instantaneous
    power, a saturation/underflow guard, the detector's short energy
    window, a longer noise-tracking smoother, and per-chunk decimation.
    This is the shape where stream fusion pays: every interior edge is
    single-producer/single-consumer, so :meth:`FlowGraph.compile`
    collapses the whole run into one fused block executing all eight
    kernels over reused scratch per chunk.  Per-chunk mean powers land
    in ``sink.items`` as ``(start_sample, means)``.
    """
    graph = FlowGraph(obs=obs)
    sink = CollectSink("chunk-powers")
    graph.chain(
        BufferChunkSource(buffer, chunk_samples),
        GainBlock(gain, "gain"),
        DcRemovalBlock(),
        GainBlock(agc, "agc"),
        PowerBlock(),
        ClampBlock(0.0, saturation),
        MovingAverageBlock(window, "ma-short"),
        MovingAverageBlock(slow_window, "ma-long"),
        ChunkMeanBlock(mean_chunk),
        sink,
    )
    return graph, sink


def build_rfdump_graph(
    buffer: SampleBuffer,
    protocols: Sequence[str] = ("wifi", "bluetooth"),
    kinds: Sequence[str] = ("timing", "phase"),
    center_freq: float = DEFAULT_CENTER_FREQ,
    detectors: Optional[Iterable[Detector]] = None,
    demodulate: bool = True,
    noise_floor: Optional[float] = None,
    config: Optional[PeakDetectorConfig] = None,
    obs=None,
):
    """Wire up Figure 2 for a buffer; returns (graph, packet_sink, cls_sink).

    Run with ``graph.run()``; decoded packets land in ``packet_sink.items``
    and raw classifications in ``cls_sink.items``.  ``obs`` attaches an
    observability sink: per-block item/sample counters, and the fusion
    pass's chain counters when the graph is compiled.
    """
    from repro.analysis.decoders import (
        BluetoothStreamDecoder,
        OfdmStreamDecoder,
        WifiStreamDecoder,
        ZigbeeStreamDecoder,
    )

    config = config or PeakDetectorConfig()
    graph = FlowGraph(obs=obs)
    source = BufferChunkSource(buffer, config.chunk_samples)
    peaks = PeakDetectionBlock(buffer.sample_rate, config, noise_floor)
    dispatcher = DispatcherBlock(config.chunk_samples)
    packet_sink = CollectSink("packets")
    cls_sink = CollectSink("classifications")

    graph.chain(source, peaks)
    graph.connect(peaks, dispatcher)  # bounds passthrough
    if detectors is None:
        detectors = default_detectors(tuple(protocols), tuple(kinds), center_freq)
    for detector in detectors:
        block = DetectorBlock(detector)
        graph.connect(peaks, block)
        graph.connect(block, dispatcher)
        graph.connect(block, cls_sink)

    decoder_for = {
        "wifi": lambda: WifiStreamDecoder(buffer.sample_rate),
        "bluetooth": lambda: BluetoothStreamDecoder(buffer.sample_rate, center_freq),
        "zigbee": lambda: ZigbeeStreamDecoder(buffer.sample_rate),
        "ofdm": lambda: OfdmStreamDecoder(buffer.sample_rate),
    }
    if demodulate:
        for protocol in protocols:
            factory = decoder_for.get(protocol)
            if factory is None:
                continue
            analyzer = AnalyzerBlock(protocol, factory())
            graph.connect(dispatcher, analyzer)
            graph.connect(analyzer, packet_sink)
    else:
        graph.connect(dispatcher, packet_sink)
    return graph, packet_sink, cls_sink
