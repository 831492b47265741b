"""Tests for FlowGraph.check(): static wiring validation before streaming."""

import numpy as np
import pytest

from repro.core.pipeline import RFDumpMonitor
from repro.dsp.samples import SampleBuffer
from repro.errors import FlowGraphError, SchedulerError
from repro.flowgraph import (
    ITEM_CHUNK,
    ITEM_DETECTION,
    ITEM_PACKET,
    Block,
    CollectSink,
    FlowGraph,
    FunctionBlock,
    IOSignature,
    SinkBlock,
    SourceBlock,
    build_rfdump_graph,
)
from repro.util.timebase import Timebase


class ChunkSource(SourceBlock):
    out_sig = IOSignature(ITEM_CHUNK, dtype=np.complex64)

    def items(self):
        return iter([(0, np.zeros(4, dtype=np.complex64))])


class ExplodingSource(SourceBlock):
    """A source whose stream must never start on a mis-wired graph."""

    out_sig = IOSignature(ITEM_CHUNK, dtype=np.complex64)

    def items(self):
        raise AssertionError("scheduler streamed a graph that should not run")


class PacketEater(Block):
    in_sig = IOSignature(ITEM_PACKET)
    out_sig = IOSignature(ITEM_PACKET)

    def work(self, item):
        return [item]


class TestSignatures:
    def test_kind_mismatch_names_both_blocks(self):
        src = ChunkSource("chunks")
        eater = PacketEater("eater")
        sink = CollectSink()
        graph = FlowGraph().chain(src, eater, sink)
        with pytest.raises(FlowGraphError) as exc:
            graph.check()
        assert "'chunks'" in str(exc.value)
        assert "'eater'" in str(exc.value)
        assert "mismatch" in str(exc.value)

    def test_dtype_mismatch_rejected(self):
        class Wide(Block):
            in_sig = IOSignature(ITEM_CHUNK, dtype=np.complex128)
            out_sig = IOSignature(ITEM_CHUNK, dtype=np.complex128)

            def work(self, item):
                return [item]

        graph = FlowGraph().chain(ChunkSource("c64"), Wide("c128"), CollectSink())
        with pytest.raises(FlowGraphError, match="'c64'.*'c128'|'c128'.*'c64'"):
            graph.check()

    def test_any_signature_is_compatible(self):
        graph = FlowGraph().chain(
            ChunkSource(), FunctionBlock(lambda x: x), CollectSink()
        )
        assert graph.check() is graph

    def test_wildcard_dtype_accepts_concrete_dtype(self):
        class AnyChunk(SinkBlock):
            in_sig = IOSignature(ITEM_CHUNK)  # any dtype

            def consume(self, item):
                pass

        FlowGraph().chain(ChunkSource(), AnyChunk()).check()


class TestPorts:
    def test_unconnected_input_port(self):
        graph = FlowGraph().chain(ChunkSource(), CollectSink())
        orphan = CollectSink("orphan")
        graph.add(orphan)
        with pytest.raises(FlowGraphError, match="input port.*'orphan'.*unconnected"):
            graph.check()

    def test_unconnected_output_port(self):
        graph = FlowGraph()
        graph.connect(ChunkSource(), FunctionBlock(lambda x: x, "dangling"))
        with pytest.raises(FlowGraphError, match="output port.*'dangling'.*unconnected"):
            graph.check()

    def test_source_as_destination_names_both_blocks(self):
        graph = FlowGraph()
        fn = FunctionBlock(lambda x: x, "upstream")
        with pytest.raises(FlowGraphError) as exc:
            graph.connect(fn, ChunkSource("the-source"))
        assert "'upstream'" in str(exc.value)
        assert "'the-source'" in str(exc.value)

    def test_no_source_is_scheduler_error(self):
        graph = FlowGraph()
        graph.add(CollectSink())
        with pytest.raises(SchedulerError):
            graph.check()


class TestCycles:
    def test_cycle_error_names_blocks(self):
        a = FunctionBlock(lambda x: x, "a")
        b = FunctionBlock(lambda x: x, "b")
        graph = FlowGraph()
        graph.connect(a, b)
        with pytest.raises(FlowGraphError) as exc:
            graph.connect(b, a)
        message = str(exc.value)
        assert "cycle" in message
        assert "'a'" in message and "'b'" in message


class TestRunValidates:
    def test_miswired_graph_fails_before_streaming(self):
        src = ExplodingSource("chunks")
        graph = FlowGraph().chain(src, PacketEater("eater"), CollectSink())
        # check() runs first: the wiring error surfaces, items() never does
        with pytest.raises(FlowGraphError, match="mismatch"):
            graph.run()

    def test_well_wired_graph_still_runs(self):
        sink = CollectSink()
        graph = FlowGraph().chain(ChunkSource(), sink)
        graph.run()
        assert len(sink.items) == 1

    def test_check_cache_invalidated_by_connect(self):
        tee = FunctionBlock(lambda item: item, "tee")
        graph = FlowGraph().chain(ChunkSource(), tee, CollectSink())
        graph.check()
        assert graph._validated
        graph.connect(tee, CollectSink("extra"))
        assert not graph._validated
        graph.check()
        assert graph._validated

    def test_rfdump_graph_passes_check(self):
        rng = np.random.default_rng(0)
        noise = 0.01 * (rng.normal(size=4096) + 1j * rng.normal(size=4096))
        buffer = SampleBuffer(noise.astype(np.complex64), Timebase(8e6))
        graph, _ = build_rfdump_graph(buffer, RFDumpMonitor())
        assert graph.check() is graph

    def test_rfdump_graph_without_demod_passes_check(self):
        rng = np.random.default_rng(1)
        noise = 0.01 * (rng.normal(size=4096) + 1j * rng.normal(size=4096))
        buffer = SampleBuffer(noise.astype(np.complex64), Timebase(8e6))
        graph, _ = build_rfdump_graph(buffer, RFDumpMonitor(demodulate=False))
        assert graph.check() is graph
