"""Tests for the flowgraph assembly of the RFDump architecture."""

from contextlib import ExitStack
from unittest import mock

import pytest

from repro import RFDumpMonitor, packet_miss_rate
from repro.core.config import MonitorConfig
from repro.core.monitor import make_monitor
from repro.flowgraph.rfdump_graph import DetectorBlock, build_rfdump_graph


def run_graph(buffer, **monitor_kwargs):
    graph, reports = build_rfdump_graph(buffer, RFDumpMonitor(**monitor_kwargs))
    graph.run()
    (report,) = reports.items
    return report


class TestGraphAssembly:
    def test_graph_matches_monitor(self, wifi_trace):
        """The flowgraph composition decodes what the batch monitor does."""
        report = run_graph(wifi_trace.buffer, protocols=("wifi",))
        batch = RFDumpMonitor(protocols=("wifi",)).process(wifi_trace.buffer)
        assert report.packets
        assert [repr(p) for p in report.packets] == \
            [repr(p) for p in batch.packets]

    def test_classifications_collected(self, wifi_trace):
        report = run_graph(wifi_trace.buffer, protocols=("wifi",),
                           demodulate=False)
        miss = packet_miss_rate(
            wifi_trace.ground_truth, report.classifications, "wifi"
        )
        assert miss == 0.0

    def test_no_demod_emits_ranges(self, wifi_trace):
        report = run_graph(wifi_trace.buffer, protocols=("wifi",),
                           demodulate=False)
        assert report.packets == []
        assert report.ranges["wifi"][0].length > 0

    def test_graph_block_count(self, wifi_trace):
        graph, _ = build_rfdump_graph(
            wifi_trace.buffer, RFDumpMonitor(protocols=("wifi", "bluetooth"))
        )
        names = {b.name for b in graph.blocks}
        assert {"peak-detector", "dispatcher", "admission", "analysis",
                "report", "WifiSifsTimingDetector"} <= names

    def test_blocks_drive_the_monitors_own_stages(self, wifi_trace):
        """The graph builds no detector, dispatcher or decoder of its own."""
        monitor = RFDumpMonitor(protocols=("wifi", "bluetooth"))
        graph, _ = build_rfdump_graph(wifi_trace.buffer, monitor)
        wired = [b.detector for b in graph.blocks
                 if isinstance(b, DetectorBlock)]
        assert len(wired) == len(monitor.detectors)
        assert all(a is b for a, b in zip(wired, monitor.detectors))
        owned = [(monitor.peak_detector, "detect"),
                 (monitor.dispatcher, "dispatch"),
                 (monitor.analysis_stage.decoders["wifi"], "scan")]
        with ExitStack() as stack:
            spies = [
                stack.enter_context(mock.patch.object(
                    owner, name, wraps=getattr(owner, name)))
                for owner, name in owned
            ]
            graph.run()
        detect, dispatch, scan = spies
        assert detect.call_count == dispatch.call_count == 1
        assert scan.call_count >= 1

    def test_rerun_is_idempotent(self, wifi_trace):
        graph, reports = build_rfdump_graph(
            wifi_trace.buffer, RFDumpMonitor(protocols=("wifi",))
        )
        graph.run()
        first = [repr(p) for p in reports.items[0].packets]
        graph.run()
        assert len(reports.items) == 1
        assert [repr(p) for p in reports.items[0].packets] == first

    def test_custom_detectors(self, wifi_trace):
        from repro.core.detectors import WifiSifsTimingDetector

        report = run_graph(
            wifi_trace.buffer, protocols=("wifi",),
            detectors=[WifiSifsTimingDetector()], demodulate=False,
        )
        assert report.classifications
        assert all(
            c.detector == "WifiSifsTimingDetector"
            for c in report.classifications
        )

    def test_empty_buffer(self):
        import numpy as np

        from repro.dsp.samples import SampleBuffer
        from repro.util.timebase import Timebase

        buf = SampleBuffer(np.zeros(0, dtype=np.complex64), Timebase(8e6))
        graph, reports = build_rfdump_graph(
            buf, RFDumpMonitor(protocols=("wifi",)))
        graph.run()
        assert reports.items == []
        # the monitor kinds agree on what an empty buffer is: an error
        for kind in ("rfdump", "flowgraph"):
            with pytest.raises(ValueError, match="empty buffer"):
                make_monitor(kind).process(buf)


class TestFlowGraphMonitor:
    def test_report_is_the_pipelines(self, wifi_trace):
        """Same fully populated report as RFDumpMonitor, not a subset."""
        config = MonitorConfig()
        with make_monitor("flowgraph", config) as monitor:
            report = monitor.process(wifi_trace.buffer)
        ref = make_monitor("rfdump", config).process(wifi_trace.buffer)
        assert len(report.peaks) == len(ref.peaks) > 0
        assert list(report.peaks.starts) == list(ref.peaks.starts)
        assert report.noise_floor == ref.noise_floor is not None
        assert report.forwarded_ranges("wifi") == ref.forwarded_ranges("wifi")
        assert report.forwarded_ranges("wifi")
        assert [repr(c) for c in report.classifications] == \
            [repr(c) for c in ref.classifications]

    def test_fused_keyword_is_gone(self):
        with pytest.raises(TypeError):
            make_monitor("flowgraph", fused=True)
