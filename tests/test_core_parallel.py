"""Tests for the analysis stage (repro.core.analysis_stage): the pool
against inline execution."""

import threading
import time

import pytest

from repro import RFDumpMonitor
from repro.analysis.decoders import PacketRecord, make_decoder
from repro.bench.scenarios import preset_buffer
from repro.core.accounting import StageClock
from repro.core.dispatcher import DispatchedRange
from repro.core.analysis_stage import (
    AnalysisStage,
    AnalysisTask,
    decode_task,
    packet_sort_key,
)
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer


def _packet_key(p):
    """Everything observable about a packet (minus the decoded object)."""
    return (
        p.protocol, p.start_sample, p.end_sample, p.ok, p.decoder,
        p.payload_size, p.rate_mbps, p.channel,
        sorted((k, v) for k, v in p.info.items()),
    )


def _windows(buffer, size):
    return [
        buffer.slice(lo, min(lo + size, len(buffer)))
        for lo in range(0, len(buffer), size)
    ]


@pytest.fixture(scope="module")
def serial_report(mixed_trace):
    return RFDumpMonitor().process(mixed_trace.buffer)


class _FakeDecoder:
    """Emits one packet per scanned range; can misbehave off-main-thread."""

    def __init__(self, fail_in_worker=False, sleep_in_worker=0.0):
        self.fail_in_worker = fail_in_worker
        self.sleep_in_worker = sleep_in_worker

    def scan(self, buffer, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            if self.fail_in_worker:
                raise RuntimeError("worker crash")
            if self.sleep_in_worker:
                time.sleep(self.sleep_in_worker)
        return [
            PacketRecord(
                protocol="wifi", start_sample=buffer.start_sample,
                end_sample=buffer.end_sample, ok=True, decoder="fake",
            )
        ]


def _fake_inputs(n_ranges=3, span=1000):
    buffer = SampleBuffer.from_array([0j] * (n_ranges * span))
    ranges = {
        "wifi": [
            DispatchedRange(start_sample=i * span, end_sample=(i + 1) * span)
            for i in range(n_ranges)
        ]
    }
    return buffer, ranges


class TestStageValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            AnalysisStage({}, workers=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            AnalysisStage({}, backend="coroutine")

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            AnalysisStage({}, timeout_per_range=0.0)

    def test_monitor_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            RFDumpMonitor(workers=0)


class TestScheduling:
    def test_one_task_per_dispatched_range(self):
        buffer, ranges = _fake_inputs(4)
        ranges["wifi"][2].channel = 7
        ranges["wifi"][2].confidence = 0.5
        stage = AnalysisStage({"wifi": _FakeDecoder()})
        tasks = stage.tasks_for(buffer, ranges)
        assert [(t.protocol, t.start_sample, t.end_sample) for t in tasks] == [
            ("wifi", r.start_sample, r.end_sample) for r in ranges["wifi"]
        ]
        assert all(t.length == 1000 for t in tasks)
        assert (tasks[2].channel, tasks[2].confidence) == (7, 0.5)

    def test_none_decoders_skipped(self):
        buffer, ranges = _fake_inputs(2)
        ranges["microwave"] = [DispatchedRange(0, 1000)]
        stage = AnalysisStage({"wifi": _FakeDecoder(), "microwave": None})
        tasks = stage.tasks_for(buffer, ranges)
        assert [t.protocol for t in tasks] == ["wifi", "wifi"]

    def test_decode_task_accounts_samples(self):
        buffer, _ = _fake_inputs(3)
        task = AnalysisTask("wifi", buffer.slice(1000, 3000))
        outcome = decode_task(_FakeDecoder(), task)
        assert [(p.start_sample, p.end_sample) for p in outcome.packets] == [
            (1000, 3000)
        ]
        assert outcome.clock.samples_touched["demodulation"] == 2000
        assert outcome.clock.seconds["demodulation"] >= 0.0


class TestSerialParallelEquivalence:
    """Acceptance: the Table 3 traffic-mix shape decodes identically."""

    def test_thread_backend_matches_serial(self, mixed_trace, serial_report):
        with RFDumpMonitor(workers=4) as monitor:
            report = monitor.process(mixed_trace.buffer)
        assert [_packet_key(p) for p in report.packets] == [
            _packet_key(p) for p in serial_report.packets
        ]
        assert report.parallel_fallbacks == 0
        assert [
            (c.peak.start_sample, c.detector) for c in report.classifications
        ] == [
            (c.peak.start_sample, c.detector)
            for c in serial_report.classifications
        ]

    def test_process_backend_matches_serial(self, mixed_trace, serial_report):
        with RFDumpMonitor(workers=2, backend="process") as monitor:
            report = monitor.process(mixed_trace.buffer)
        assert [_packet_key(p) for p in report.packets] == [
            _packet_key(p) for p in serial_report.packets
        ]

    def test_serial_output_is_sorted(self, serial_report):
        keys = [packet_sort_key(p) for p in serial_report.packets]
        assert keys == sorted(keys)

    def test_streaming_parallel_matches_streaming_serial(self, mixed_trace):
        def run(workers):
            with StreamingMonitor(RFDumpMonitor(workers=workers)) as stream:
                stream.run(_windows(mixed_trace.buffer, 500_000))
            return stream.packets

        serial, parallel = run(1), run(3)
        assert [_packet_key(p) for p in parallel] == [
            _packet_key(p) for p in serial
        ]


class TestAccounting:
    def test_worker_clocks_merge_into_report(self, mixed_trace):
        with RFDumpMonitor(workers=3) as monitor:
            report = monitor.process(mixed_trace.buffer)
        assert report.clock.seconds["demodulation"] > 0
        assert report.clock.seconds["demodulation_wall"] > 0
        assert report.clock.samples_touched["demodulation"] > 0
        assert set(report.demod_seconds_by_protocol) == {"wifi", "bluetooth"}
        # worker CPU across protocols adds up like a serial run's would
        assert sum(report.demod_seconds_by_protocol.values()) == pytest.approx(
            report.clock.seconds["demodulation"], rel=0.05
        )

    def test_pool_demodulation_seconds_are_worker_cpu(self):
        # each decode is timed on its worker's CPU clock: a wall clock
        # also counted the time a thread worker waited for the
        # interpreter lock while its neighbour decoded, and summed to
        # 1.4-1.5x the CPU the whole process spent on a 2-core host
        buffer = preset_buffer("broadcast", 0.2, seed=3)
        with RFDumpMonitor(demodulate=False) as monitor:
            ranges = monitor.process(buffer).ranges
        decoders = {p: make_decoder(p, buffer.sample_rate) for p in ranges}
        with AnalysisStage(decoders, workers=2) as stage:
            stage.run(buffer, ranges)  # start the pool's threads
            started = time.process_time()
            _, demod_seconds, _ = stage.run(buffer, ranges)
            process_cpu = time.process_time() - started
        assert 0.0 < sum(demod_seconds.values()) <= process_cpu

    def test_pool_wall_time_is_not_counted_as_cost(self, mixed_trace):
        # "processing cost" added the pool's elapsed time to the seconds
        # its workers had already accounted (3.12x for a 0.6x trace)
        with RFDumpMonitor(workers=2) as monitor:
            report = monitor.process(mixed_trace.buffer)
        seconds = report.clock.seconds
        cpu = sum(spent for stage, spent in seconds.items()
                  if stage != "demodulation_wall")
        assert seconds["demodulation_wall"] > 0  # still there to read
        assert report.clock.total_seconds() == pytest.approx(cpu)
        assert report.cpu_over_realtime == pytest.approx(cpu / report.duration)

    def test_parallel_samples_touched_match_serial(self, mixed_trace,
                                                   serial_report):
        with RFDumpMonitor(workers=3) as monitor:
            report = monitor.process(mixed_trace.buffer)
        assert (
            report.clock.samples_touched["demodulation"]
            == serial_report.clock.samples_touched["demodulation"]
        )


class TestFallback:
    def test_worker_failure_falls_back_to_serial(self):
        buffer, ranges = _fake_inputs(3)
        stage = AnalysisStage(
            {"wifi": _FakeDecoder(fail_in_worker=True)},
            workers=2,
        )
        with stage:
            packets, demod, fallbacks = stage.run(buffer, ranges)
        assert fallbacks == 3
        assert stage.fallbacks == 3
        assert len(packets) == 3  # nothing dropped
        assert demod["wifi"] >= 0.0

    def test_fallbacks_surface_in_report(self, wifi_trace):
        monitor = RFDumpMonitor(protocols=("wifi",), workers=2)
        monitor.analysis_stage.decoders["wifi"] = _FakeDecoder(
            fail_in_worker=True)
        with monitor:
            report = monitor.process(wifi_trace.buffer)
        assert report.parallel_fallbacks > 0

    def test_deterministic_order_despite_fallbacks(self):
        buffer, ranges = _fake_inputs(5)
        stage = AnalysisStage(
            {"wifi": _FakeDecoder(fail_in_worker=True)},
            workers=2,
        )
        with stage:
            packets, _, _ = stage.run(buffer, ranges)
        assert [p.start_sample for p in packets] == [0, 1000, 2000, 3000, 4000]


class TestLifecycle:
    def test_close_then_reuse_rebuilds_pool(self):
        buffer, ranges = _fake_inputs(2)
        stage = AnalysisStage({"wifi": _FakeDecoder()}, workers=2)
        first, _, _ = stage.run(buffer, ranges)
        stage.close()
        assert stage._executor is None
        second, _, _ = stage.run(buffer, ranges)
        stage.close()
        assert [p.start_sample for p in first] == [p.start_sample for p in second]

    def test_serial_monitor_close_is_noop(self):
        monitor = RFDumpMonitor()
        assert monitor.analysis_stage._executor is None
        monitor.close()  # must not raise

    def test_one_worker_starts_no_thread_or_process(self, wifi_trace):
        """``workers == 1`` decodes in the calling thread: a window
        leaves no executor, thread or child process behind."""
        import multiprocessing

        seen = []

        class _Spy(_FakeDecoder):
            def scan(self, buffer, **kwargs):
                seen.append(threading.current_thread())
                return super().scan(buffer, **kwargs)

        monitor = RFDumpMonitor(protocols=("wifi",), deadline_ms=30_000.0,
                                timeout=5.0)
        monitor.analysis_stage.decoders["wifi"] = _Spy()
        threads = threading.active_count()
        report = monitor.process(wifi_trace.buffer)
        assert report.packets
        assert set(seen) == {threading.current_thread()}
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []
        assert monitor.analysis_stage._executor is None
