"""Tests for the stream-fusion compiler (repro.flowgraph.fusion).

The contract under test is byte-identity: a compiled graph must produce
the same items, bit for bit, and the same per-block counters as the
unfused interpreter — over hand-built chains, over randomly generated
linear chains from the standard block vocabulary, and over every
emulator preset's front-end run.
"""

import numpy as np
import pytest

from repro.dsp.samples import SampleBuffer
from repro.flowgraph import (
    Block,
    BufferChunkSource,
    ChunkMeanBlock,
    ClampBlock,
    CollectSink,
    DcRemovalBlock,
    FlowGraph,
    FusedBlock,
    GainBlock,
    MovingAverageBlock,
    PowerBlock,
    build_frontend_graph,
    compile_graph,
    find_chains,
)
from repro.obs import Observability
from repro.util.timebase import Timebase


def make_buffer(n, seed=7, sample_rate=2e6):
    rng = np.random.default_rng(seed)
    iq = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return SampleBuffer(iq.astype(np.complex64), Timebase(sample_rate), 0)


def run_frontend(buffer, fused, obs=None, **kwargs):
    graph, sink = build_frontend_graph(buffer, obs=obs, **kwargs)
    graph.run(fused=fused)
    return sink.items


def assert_items_identical(unfused, fused):
    assert len(unfused) == len(fused)
    for (s_ref, d_ref), (s_fused, d_fused) in zip(unfused, fused):
        assert s_ref == s_fused
        assert d_ref.dtype == d_fused.dtype
        assert d_ref.tobytes() == d_fused.tobytes()


def flowgraph_counters(obs):
    return {
        m.key: m.value
        for m in obs.registry.collect()
        if m.name in ("flowgraph_items_total", "flowgraph_samples_total")
    }


class TestChainFinding:
    def _frontend(self, n=1000):
        graph, sink = build_frontend_graph(make_buffer(n))
        return graph, sink

    def test_frontend_chain_found(self):
        graph, sink = self._frontend()
        chains = find_chains(graph)
        assert len(chains) == 1
        # every non-source block, sink included, lands in the one chain
        assert len(chains[0]) == len(graph.blocks) - 1

    def test_source_never_in_chain(self):
        graph, _ = self._frontend()
        (chain,) = find_chains(graph)
        assert all(b.fusable for b in chain)

    def test_fan_out_breaks_chain(self):
        buffer = make_buffer(500)
        graph = FlowGraph()
        src = BufferChunkSource(buffer, 100)
        power = PowerBlock()
        a, b = CollectSink("a"), CollectSink("b")
        graph.connect(src, power)
        graph.connect(power, a)
        graph.connect(power, b)
        assert find_chains(graph) == []
        assert compile_graph(graph) is graph

    def test_fan_in_breaks_chain(self):
        buffer = make_buffer(500)
        graph = FlowGraph()
        src_a = BufferChunkSource(buffer, 100, name="src-a")
        src_b = BufferChunkSource(buffer, 100, name="src-b")
        power = PowerBlock()
        clamp = ClampBlock(0.0, 1e6)
        sink = CollectSink()
        graph.connect(src_a, power)
        graph.connect(src_b, power)
        graph.chain(power, clamp, sink)
        # power has two predecessors: it may head a chain but not be
        # absorbed into one through its input edge
        chains = find_chains(graph)
        assert [b.name for b in chains[0]] == [power.name, clamp.name, sink.name]

    def test_fusable_opt_out_splits_chain(self):
        buffer = make_buffer(500)
        graph = FlowGraph()
        power = PowerBlock()
        power.fusable = False
        graph.chain(BufferChunkSource(buffer, 100), GainBlock(2.0), power,
                    ClampBlock(0.0, 1e6), MovingAverageBlock(8), CollectSink())
        chains = find_chains(graph)
        assert power not in {b for chain in chains for b in chain}
        compiled = compile_graph(graph)
        assert compiled is not graph
        assert power in compiled.blocks

    def test_single_block_chain_not_fused(self):
        buffer = make_buffer(500)
        graph = FlowGraph()
        graph.chain(BufferChunkSource(buffer, 100), PowerBlock())
        # power's output port is unconnected -> invalid; wire to a
        # non-fusable sink instead to isolate the single fusable block
        sink = CollectSink()
        sink.fusable = False
        graph.connect(graph.blocks[-1], sink)
        assert find_chains(graph) == []
        assert compile_graph(graph) is graph


class TestFusedEquivalence:
    @pytest.mark.parametrize("n", [1, 200, 399, 100123])
    def test_frontend_byte_identical(self, n):
        buffer = make_buffer(n)
        unfused = run_frontend(buffer, fused=False, gain=1.5, agc=0.8)
        fused = run_frontend(buffer, fused=True, gain=1.5, agc=0.8)
        assert_items_identical(unfused, fused)

    def test_empty_buffer(self):
        buffer = make_buffer(0)
        unfused = run_frontend(buffer, fused=False)
        fused = run_frontend(buffer, fused=True)
        assert unfused == fused == []

    def test_counters_equal(self):
        buffer = make_buffer(5000)
        obs_ref, obs_fused = Observability(), Observability()
        unfused = run_frontend(buffer, fused=False, obs=obs_ref)
        fused = run_frontend(buffer, fused=True, obs=obs_fused)
        assert_items_identical(unfused, fused)
        assert flowgraph_counters(obs_ref) == flowgraph_counters(obs_fused)

    def test_fusion_counters_recorded(self):
        obs = Observability()
        run_frontend(make_buffer(1000), fused=True, obs=obs)
        assert obs.registry.value("rfdump_fusion_chains_total") == 1
        # gain, dc, agc, power, clamp, ma-short, ma-long, chunk-mean, sink
        assert obs.registry.value("rfdump_fusion_blocks_fused_total") == 9

    def test_fused_flush_span_names_members(self):
        obs = Observability()
        buffer = make_buffer(1000)
        graph, _ = build_frontend_graph(buffer, obs=obs)
        graph.run(fused=True)
        spans = [s for s in obs.tracer.spans if s.name == "fused_flush"]
        assert spans
        assert "chunk-mean" in spans[0].attrs["blocks"]

    def test_compiled_graph_reusable_across_runs(self):
        buffer = make_buffer(3000)
        graph, sink = build_frontend_graph(buffer)
        graph.run(fused=True)
        first = list(sink.items)
        graph.run(fused=True)
        assert_items_identical(first, sink.items)

    def test_mixed_dtype_chain_fuses(self):
        # complex64 head, float64 tail: the PowerBlock dtype boundary
        # sits inside one kernel run
        buffer = make_buffer(777)
        graph = FlowGraph()
        sink = CollectSink()
        graph.chain(BufferChunkSource(buffer, 64), GainBlock(0.5),
                    PowerBlock(), MovingAverageBlock(16), sink)
        compiled = compile_graph(graph)
        assert compiled is not graph
        graph.run()
        unfused = list(sink.items)
        graph.run(fused=True)
        assert_items_identical(unfused, sink.items)


# the standard fusable vocabulary, as (factory, needs_power_input) pairs:
# blocks after a PowerBlock see float64 power samples, blocks before see
# complex64 IQ — the generator keeps the dtype handshake valid
_IQ_STAGES = [
    lambda i: GainBlock(1.0 + 0.25 * i, name=f"gain-{i}"),
    lambda i: DcRemovalBlock(name=f"dc-{i}"),
]
_POWER_STAGES = [
    lambda i: GainBlock(0.5 + 0.25 * i, name=f"pgain-{i}"),
    lambda i: ClampBlock(0.0, 10.0 ** (3 + i), name=f"clamp-{i}"),
    lambda i: MovingAverageBlock(4 + 3 * i, name=f"ma-{i}"),
    lambda i: ChunkMeanBlock(10 + 5 * i, name=f"mean-{i}"),
]


def random_linear_chain(rng):
    """A random valid linear chain: IQ stages, PowerBlock, power stages."""
    stages = []
    for i in range(rng.integers(0, 3)):
        stages.append(_IQ_STAGES[rng.integers(len(_IQ_STAGES))](i))
    stages.append(PowerBlock())
    for i in range(rng.integers(1, 4)):
        stages.append(_POWER_STAGES[rng.integers(len(_POWER_STAGES))](i))
    return stages


class TestPropertyEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_chain_byte_identical_and_counter_equal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        chunk = int(rng.integers(16, 300))
        buffer = make_buffer(n, seed=seed + 100)
        outputs, counters = [], []
        for fused in (False, True):
            obs = Observability()
            graph = FlowGraph(obs=obs)
            sink = CollectSink()
            rng_chain = np.random.default_rng(seed)  # same chain both times
            graph.chain(BufferChunkSource(buffer, chunk),
                        *random_linear_chain(rng_chain), sink)
            graph.run(fused=fused)
            outputs.append(sink.items)
            counters.append(flowgraph_counters(obs))
        assert_items_identical(outputs[0], outputs[1])
        assert counters[0] == counters[1]

    @pytest.mark.parametrize("preset", ["wifi", "bluetooth", "mix", "kitchen"])
    def test_presets_byte_identical(self, preset):
        from repro.bench.scenarios import preset_buffer

        buffer = preset_buffer(preset, 0.01, seed=3)
        unfused = run_frontend(buffer, fused=False, gain=1.5, agc=0.8)
        fused = run_frontend(buffer, fused=True, gain=1.5, agc=0.8)
        assert_items_identical(unfused, fused)


class TestCompileMechanics:
    def test_check_cache_invalidated_by_connect(self):
        buffer = make_buffer(500)
        graph = FlowGraph()
        power = PowerBlock()
        graph.chain(BufferChunkSource(buffer, 100), power, CollectSink())
        graph.check()
        assert graph._validated
        extra = CollectSink("extra")
        graph.connect(power, extra)
        assert not graph._validated
        graph.check()
        assert graph._validated

    def test_compile_cache_invalidated_by_connect(self):
        buffer = make_buffer(500)
        graph, _ = build_frontend_graph(buffer)
        first = graph.compile()
        assert graph.compile() is first
        graph.connect(graph.blocks[1], CollectSink("tap"))
        assert graph.compile() is not first

    def test_fused_block_requires_two_members(self):
        with pytest.raises(ValueError):
            FusedBlock([PowerBlock()])

    def test_fused_block_name_carries_members(self):
        fused = FusedBlock([PowerBlock(), MovingAverageBlock(8, "ma")])
        assert fused.name == "fused(power+ma)"
        assert not fused.fusable

    def test_compiled_graph_passes_check(self):
        graph, _ = build_frontend_graph(make_buffer(500))
        compiled = graph.compile()
        assert compiled is not graph
        compiled.check()

    def test_member_state_observable_after_fused_run(self):
        # the sink absorbed into the chain is the same object the caller
        # holds: fusion must not re-route its items elsewhere
        buffer = make_buffer(1000)
        graph, sink = build_frontend_graph(buffer)
        graph.run(fused=True)
        assert sink.items
        assert isinstance(sink.items[0], tuple)


class TestFlowGraphMonitorCLI:
    def test_cli_flowgraph_summary_counts_peaks(self, tmp_path, capsys):
        from repro.emulator.presets import build_preset
        from repro.tools.rfdump import main
        from repro.trace.io import write_trace

        trace = str(tmp_path / "t.iq")
        write_trace(trace, build_preset("wifi", 0.02, seed=1).render().buffer)
        assert main([trace, "--monitor", "flowgraph", "--summary"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith(" peaks") and not header.endswith(" 0 peaks")

    def test_cli_rejects_removed_fuse_flag(self, tmp_path):
        from repro.tools.rfdump import main

        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "t.iq"), "--monitor", "flowgraph", "--fuse"])
        assert exc.value.code == 2


class TestSpeedupMeasurement:
    def test_measure_speedup_interleaves_in_process(self):
        from repro.bench import BenchOptions, get_benchmark, measure_speedup

        bench = get_benchmark("pipeline_mix_fused")
        m = measure_speedup(bench, BenchOptions(repeats=2, warmup=1,
                                                quick=True))
        assert m.name == "pipeline_mix_fused"
        assert len(m.reference_seconds) == len(m.current_seconds) == 2
        assert m.factor > 0
