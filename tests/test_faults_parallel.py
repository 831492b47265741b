"""Worker crashes, stalls and pool death through the pooled analysis stage."""

import pytest

from repro import RFDumpMonitor
from repro.analysis.decoders import PacketRecord
from repro.core.config import MonitorConfig
from repro.core.dispatcher import DispatchedRange
from repro.core.analysis_stage import AnalysisStage
from repro.dsp.samples import SampleBuffer
from repro.errors import DecodeTimeoutError, RFDumpError, WorkerCrashError
from repro.faults import CrashingDecoder, PoolKillerDecoder, SlowDecoder
from repro.obs import Observability


class _EmittingDecoder:
    """One packet per scanned range, wherever it runs."""

    def scan(self, buffer, **kwargs):
        return [
            PacketRecord(
                protocol="wifi", start_sample=buffer.start_sample,
                end_sample=buffer.end_sample, ok=True, decoder="fake",
            )
        ]


def _fake_inputs(n_ranges=3, span=1_000):
    buffer = SampleBuffer.from_array([0j] * (n_ranges * span))
    ranges = {
        "wifi": [
            DispatchedRange(start_sample=i * span, end_sample=(i + 1) * span)
            for i in range(n_ranges)
        ]
    }
    return buffer, ranges


def _packet_key(p):
    return (p.protocol, p.start_sample, p.end_sample, p.ok, p.decoder,
            p.payload_size, p.rate_mbps, p.channel)


@pytest.fixture(scope="module")
def serial_packets(wifi_trace):
    report = RFDumpMonitor(protocols=("wifi",)).process(wifi_trace.buffer)
    return sorted(_packet_key(p) for p in report.packets)


class TestDegrade:
    def test_worker_crash_loses_no_packets(self, wifi_trace, serial_packets):
        obs = Observability()
        monitor = RFDumpMonitor(
            config=MonitorConfig(
                protocols=("wifi",), workers=2, on_error="degrade", obs=obs
            )
        )
        stage = monitor.analysis_stage
        stage.decoders["wifi"] = CrashingDecoder(
            wrapped=stage.decoders["wifi"], at=None
        )
        with monitor:
            report = monitor.process(wifi_trace.buffer)
        assert sorted(_packet_key(p) for p in report.packets) == serial_packets
        assert report.parallel_fallbacks > 0
        records = [e for e in report.errors if e.stage == "analysis"]
        assert records
        assert {e.error for e in records} == {"InjectedFault"}
        assert {e.action for e in records} == {"fallback"}
        assert records[0].component == "wifi"
        assert "injected worker crash" in records[0].message
        assert stage.last_error is not None
        assert obs.registry.value(
            "rfdump_parallel_fallback_errors_total", protocol="wifi"
        ) >= 1

    def test_error_records_carry_sample_ranges(self):
        buffer, ranges = _fake_inputs(3)
        stage = AnalysisStage(
            {"wifi": CrashingDecoder(wrapped=_EmittingDecoder(), at=None)},
            workers=2, on_error="degrade",
        )
        with stage:
            packets, _, fallbacks = stage.run(buffer, ranges)
        records = stage.take_error_records()
        assert fallbacks == 3
        assert len(packets) == 3  # inline fallback re-decoded everything
        assert sorted((e.start_sample, e.end_sample) for e in records) == [
            (0, 1000), (1000, 2000), (2000, 3000)
        ]
        assert stage.take_error_records() == []  # drained

    def test_broken_process_pool_restarts_then_falls_back(self):
        obs = Observability()
        buffer, ranges = _fake_inputs(1)
        stage = AnalysisStage(
            {"wifi": PoolKillerDecoder()},
            workers=2, backend="process", on_error="degrade",
            max_pool_restarts=2, obs=obs,
        )
        with stage:
            packets, _, fallbacks = stage.run(buffer, ranges)
        # every rebuilt pool died too, so the task ended up inline (where
        # PoolKillerDecoder decodes normally)
        assert fallbacks == 1
        assert obs.registry.value(
            "rfdump_parallel_pool_restarts_total"
        ) == 2
        records = stage.take_error_records()
        assert records
        assert all(e.action == "fallback" for e in records)

    def test_slow_worker_times_out_and_is_shed(self):
        # degrade no longer re-runs a decode that already blew its
        # budget — that retry was the stall the watchdog exists to
        # prevent; the task is shed and counted instead
        obs = Observability()
        buffer, ranges = _fake_inputs(1)
        stage = AnalysisStage(
            {"wifi": SlowDecoder(wrapped=_EmittingDecoder(), delay=1.0)},
            workers=2, timeout_per_range=0.05, on_error="degrade", obs=obs,
        )
        packets, _, fallbacks = stage.run(buffer, ranges)
        stage._discard_executor()  # don't wait out the sleeping worker
        assert fallbacks == 0
        assert packets == []
        assert stage.shed_ranges == 1
        (record,) = stage.take_error_records()
        assert record.action == "timeout"
        assert obs.registry.value(
            "rfdump_ranges_shed_total", protocol="wifi"
        ) == 1


class TestRaise:
    def test_worker_crash_raises_typed_error(self):
        buffer, ranges = _fake_inputs(1)
        stage = AnalysisStage(
            {"wifi": CrashingDecoder(at=None)},
            workers=2, on_error="raise",
        )
        with stage:
            with pytest.raises(WorkerCrashError) as excinfo:
                stage.run(buffer, ranges)
        assert isinstance(excinfo.value, RFDumpError)
        assert excinfo.value.protocol == "wifi"

    def test_timeout_raises_typed_deadline_error(self):
        # raise mode treats a missed decode deadline as what it is: a
        # deadline fault, surfaced as DecodeTimeoutError (the silent
        # inline re-run used to hide the stall entirely)
        buffer, ranges = _fake_inputs(1)
        stage = AnalysisStage(
            {"wifi": SlowDecoder(wrapped=_EmittingDecoder(), delay=1.0)},
            workers=2, timeout_per_range=0.05, on_error="raise",
        )
        with pytest.raises(DecodeTimeoutError) as excinfo:
            stage.run(buffer, ranges)
        stage._discard_executor()
        assert isinstance(excinfo.value, RFDumpError)
        assert excinfo.value.protocol == "wifi"


class TestSkip:
    def test_failed_tasks_dropped_not_retried(self):
        obs = Observability()
        buffer, ranges = _fake_inputs(3)
        stage = AnalysisStage(
            {"wifi": CrashingDecoder(wrapped=_EmittingDecoder(), at=None)},
            workers=2, on_error="skip", obs=obs,
        )
        with stage:
            packets, _, fallbacks = stage.run(buffer, ranges)
        assert packets == []
        assert fallbacks == 0
        assert obs.registry.value(
            "rfdump_parallel_skipped_tasks_total"
        ) == 3
        assert len(stage.take_error_records()) == 3


class TestLegacy:
    def test_default_mode_still_falls_back_but_records(self):
        buffer, ranges = _fake_inputs(2)
        stage = AnalysisStage(
            {"wifi": CrashingDecoder(wrapped=_EmittingDecoder(), at=None)},
            workers=2,
        )
        with stage:
            packets, _, fallbacks = stage.run(buffer, ranges)
        assert fallbacks == 2
        assert len(packets) == 2
        records = stage.take_error_records()
        assert len(records) == 2
        assert stage.last_error in records
