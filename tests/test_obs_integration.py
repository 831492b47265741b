"""End-to-end observability: the pipeline's metrics and traces.

The acceptance bar for the obs subsystem: deterministic counters are
identical across runs of the same input (the paper's Table 1 / Fig 9
quantities), spans nest stage -> detector / decoded range, and the
streaming layer reports its own load.
"""

import pytest

from repro import MonitorConfig, Observability, RFDumpMonitor
from repro.core.accounting import StageClock
from repro.core.pipeline import MonitorReport
from repro.core.streaming import StreamingMonitor
from repro.obs.metrics import Counter


def _monitor(trace, obs, **overrides):
    config = MonitorConfig(
        sample_rate=trace.sample_rate,
        center_freq=trace.center_freq,
        obs=obs,
        **overrides,
    )
    return RFDumpMonitor(config=config)


def _counter_values(obs):
    """Every counter series as {(name, labels): value}."""
    return {
        m.key: m.value
        for m in obs.registry.collect()
        if isinstance(m, Counter)
    }


class TestPipelineMetrics:
    def test_core_counters_present(self, mixed_trace):
        obs = Observability()
        report = _monitor(mixed_trace, obs).process(mixed_trace.buffer)
        reg = obs.registry
        assert reg.value("rfdump_samples_total") == len(mixed_trace.buffer)
        assert reg.value("rfdump_peaks_total") == len(report.peaks)
        decoded = sum(
            m.value for m in reg.series("rfdump_packets_decoded_total")
        )
        assert decoded == len(report.packets)
        classified = sum(
            m.value for m in reg.series("rfdump_classifications_total")
        )
        assert classified == len(report.classifications)
        # stage clock forwarded into the registry exactly once
        assert reg.value(
            "rfdump_stage_samples_total", stage="peak_detection"
        ) == report.clock.samples_touched["peak_detection"]

    def test_counters_identical_across_runs(self, mixed_trace):
        runs = []
        for _ in range(2):
            obs = Observability()
            _monitor(mixed_trace, obs).process(mixed_trace.buffer)
            runs.append(_counter_values(obs))
        assert runs[0] == runs[1]

    def test_noise_floor_gauge(self, wifi_trace):
        obs = Observability()
        report = _monitor(wifi_trace, obs, protocols=("wifi",)).process(
            wifi_trace.buffer
        )
        assert obs.registry.value("rfdump_noise_floor_power") == pytest.approx(
            report.noise_floor
        )


def _span_tree(obs):
    """{name: span} plus children lists, for nesting assertions."""
    spans = obs.tracer.spans
    children = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return spans, children


class TestPipelineSpans:
    def test_nesting_stage_task_range(self, wifi_trace):
        obs = Observability()
        report = _monitor(wifi_trace, obs, protocols=("wifi",)).process(
            wifi_trace.buffer)
        spans, children = _span_tree(obs)
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, s)
        process = by_name["process"]
        assert process.parent is None
        kid_names = {s.name for s in children[process.id]}
        assert "peak_detection" in kid_names
        assert "analysis" in kid_names
        # one span per decoded range, straight under the stage
        ranges = children[by_name["analysis"].id]
        assert ranges and all(r.name == "demod[wifi]" for r in ranges)
        assert all(r.category == "range" for r in ranges)
        assert all(
            r.start_sample is not None and r.end_sample > r.start_sample
            for r in ranges
        )
        assert all(not children[r.id] for r in ranges)
        # in (protocol, start_sample) order, one per dispatched range
        assert [(r.start_sample, r.end_sample) for r in ranges] == \
            report.forwarded_ranges("wifi")


class TestStreamingMetrics:
    def test_window_flush_and_frontier_metrics(self, mixed_trace):
        obs = Observability()
        config = MonitorConfig(
            sample_rate=mixed_trace.sample_rate,
            center_freq=mixed_trace.center_freq,
            obs=obs,
        )
        streaming = StreamingMonitor(config=config)
        total = len(mixed_trace.buffer)
        window = total // 3
        for start in range(0, total, window):
            streaming.process(
                mixed_trace.buffer.slice(start, min(start + window, total))
            )
        streaming.flush()
        reg = obs.registry
        assert reg.value("rfdump_stream_windows_total") >= 3
        assert reg.value("rfdump_stream_flushes_total") == 1
        # the seam's carried samples, never more than the overlap a window
        carried = reg.value("rfdump_stream_overlap_samples_total")
        assert carried is not None
        assert 0 <= carried <= 2 * streaming.overlap

    def test_streaming_inherits_inner_monitor_obs(self, wifi_trace):
        obs = Observability()
        monitor = _monitor(wifi_trace, obs, protocols=("wifi",))
        streaming = StreamingMonitor(monitor)
        assert streaming.obs is obs


class TestCpuOverRealtime:
    def test_zero_duration_report_is_zero(self):
        report = MonitorReport(
            total_samples=0, duration=0.0, peaks=None,
            classifications=[], ranges={}, packets=[], clock=StageClock(),
        )
        assert report.cpu_over_realtime == 0.0

    def test_positive_duration_ratio(self, wifi_report):
        assert wifi_report.cpu_over_realtime > 0.0
