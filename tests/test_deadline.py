"""The deadline/admission layer: budgets, priorities, shedding, SLO gate.

Covers the deadline layer end to end: absolute per-task deadlines in the
pooled analysis stage (a permanently-stalled demodulator cannot block
past its budget), deadline-priority ordering with any worker count, the
budget check before every range, AIMD admission control
with backpressure through the streaming monitor, the leaked-worker
accounting around ``Future.cancel()``'s no-op on running workers, and
the rfbench ``--max-p99`` latency SLO gate.
"""

import time
import types

import pytest

from repro.analysis.decoders import PacketRecord
from repro.core import RFDumpMonitor
from repro.core.config import MonitorConfig
from repro.core.deadline import (
    AdmissionController,
    DeadlineScheduler,
    WindowBudget,
    order_tasks,
    range_priority,
)
from repro.core.dispatcher import DispatchedRange
from repro.core.analysis_stage import AnalysisStage, AnalysisTask
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer
from repro.errors import DeadlineError, DecodeTimeoutError, RFDumpError
from repro.faults import SlowDecoder
from repro.faults.harness import split_windows
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.tools.rfbench import (
    _check_latency_requirements,
    _parse_latency_requirements,
)
from repro.tools.rfdump import build_parser as build_rfdump_parser


class _EmittingDecoder:
    """One packet per scanned range, wherever it runs."""

    def scan(self, buffer, **kwargs):
        return [
            PacketRecord(
                protocol="wifi", start_sample=buffer.start_sample,
                end_sample=buffer.end_sample, ok=True, decoder="fake",
            )
        ]


def _fake_inputs(n_ranges=1, span=1_000, confidence=0.5):
    buffer = SampleBuffer.from_array([0j] * (n_ranges * span))
    ranges = {
        "wifi": [
            DispatchedRange(start_sample=i * span, end_sample=(i + 1) * span,
                            confidence=confidence)
            for i in range(n_ranges)
        ]
    }
    return buffer, ranges


def _rng(start, end, confidence=0.0):
    return DispatchedRange(start_sample=start, end_sample=end,
                           confidence=confidence)


def _by_priority(ranges):
    """Dispatch output as ``(protocol, range)`` pairs, best priority first."""
    return sorted(
        ((protocol, rng) for protocol, rs in ranges.items() for rng in rs),
        key=lambda pair: range_priority(*pair),
    )


# -- WindowBudget ------------------------------------------------------------

class TestWindowBudget:
    def test_absolute_deadline_from_injected_anchor(self):
        budget = WindowBudget(0.5, t0=100.0)
        assert budget.deadline == 100.5
        assert budget.seconds == 0.5

    def test_fresh_budget_not_expired(self):
        budget = WindowBudget(30.0)
        assert not budget.expired
        assert budget.remaining() > 29.0

    def test_past_anchor_is_expired(self):
        budget = WindowBudget(0.05, t0=time.monotonic() - 1.0)
        assert budget.expired
        assert budget.remaining() < 0.0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            WindowBudget(0.0)


# -- priority ordering -------------------------------------------------------

class TestPriority:
    def test_confidence_major_cost_minor(self):
        confident = _rng(0, 4_000, confidence=0.9)
        cheap = _rng(0, 1_000, confidence=0.5)
        costly = _rng(0, 8_000, confidence=0.5)
        order = sorted(
            [costly, cheap, confident],
            key=lambda r: range_priority("wifi", r),
        )
        assert order == [confident, cheap, costly]

    def test_range_priority_order_is_insertion_invariant(self):
        a = {"wifi": [_rng(0, 1_000, 0.9)], "bluetooth": [_rng(0, 500, 0.9)]}
        b = {"bluetooth": [_rng(0, 500, 0.9)], "wifi": [_rng(0, 1_000, 0.9)]}
        assert _by_priority(a) == _by_priority(b)
        # equal confidence: the cheaper bluetooth range runs first
        assert _by_priority(a)[0][0] == "bluetooth"

    def test_order_tasks_matches_range_priority(self):
        buffer = SampleBuffer.from_array([0j] * 3_000)
        low = AnalysisTask("wifi", buffer.slice(0, 2_000), confidence=0.2)
        high = AnalysisTask("bluetooth", buffer.slice(0, 1_000),
                            confidence=0.8)
        assert order_tasks([low, high]) == [high, low]
        assert order_tasks([high, low]) == [high, low]


# -- admission control -------------------------------------------------------

class TestAdmissionController:
    def test_aimd_up_and_down(self):
        ctrl = AdmissionController(step_up=0.25, step_down=0.05)
        assert ctrl.record(True) == 0.25
        assert ctrl.record(True) == 0.5
        assert ctrl.record(False) == pytest.approx(0.45)

    def test_capped_at_max_shed_and_floored_at_zero(self):
        ctrl = AdmissionController(step_up=0.5, max_shed=0.9)
        for _ in range(5):
            ctrl.record(True)
        assert ctrl.level == 0.9
        for _ in range(40):
            ctrl.record(False)
        assert ctrl.level == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(step_up=0.0)
        with pytest.raises(ValueError):
            AdmissionController(max_shed=1.5)


class TestAdmit:
    def test_level_zero_admits_everything(self):
        scheduler = DeadlineScheduler(100.0)
        _, ranges = _fake_inputs(3)
        admitted, records = scheduler.admit(ranges, scheduler.start_window())
        assert admitted == ranges
        assert records == []
        assert scheduler.ranges_shed == 0

    def test_expired_budget_sheds_everything(self):
        obs = Observability()
        scheduler = DeadlineScheduler(100.0, obs=obs)
        _, ranges = _fake_inputs(2)
        budget = WindowBudget(0.1, t0=time.monotonic() - 1.0)
        admitted, records = scheduler.admit(ranges, budget)
        assert admitted == {}
        assert len(records) == 2
        assert all(r.action == "shed" for r in records)
        assert all(r.error == "DeadlineError" for r in records)
        assert scheduler.ranges_shed == 2
        assert obs.registry.value(
            "rfdump_ranges_shed_total", protocol="wifi"
        ) == 2

    def test_level_sheds_lowest_priority_tail_keeps_dispatch_order(self):
        scheduler = DeadlineScheduler(
            100.0, controller=AdmissionController(level=0.5))
        ranges = {"wifi": [
            _rng(0, 1_000, confidence=0.9),
            _rng(1_000, 2_000, confidence=0.1),   # the shed tail
            _rng(2_000, 3_000, confidence=0.8),
            _rng(3_000, 4_000, confidence=0.2),   # the shed tail
        ]}
        admitted, records = scheduler.admit(ranges, scheduler.start_window())
        kept = admitted["wifi"]
        assert [r.confidence for r in kept] == [0.9, 0.8]
        # dispatch order preserved, not priority order
        assert kept[0].start_sample < kept[1].start_sample
        assert sorted(r.start_sample for r in records) == [1_000, 3_000]

    def test_finish_window_accounts_misses_and_level(self):
        obs = Observability()
        scheduler = DeadlineScheduler(100.0, obs=obs)
        assert scheduler.finish_window(0.2) is True      # 200ms > 100ms
        assert scheduler.finish_window(0.01) is False
        assert scheduler.deadline_misses == 1
        assert scheduler.windows == 2
        assert obs.registry.value("rfdump_deadline_misses_total") == 1
        assert obs.registry.value("rfdump_admission_level") == pytest.approx(
            0.20)


# -- parallel stage under deadlines ------------------------------------------

class TestParallelDeadlines:
    def test_hung_worker_cannot_block_past_budget_degrade(self):
        obs = Observability()
        decoder = SlowDecoder(wrapped=_EmittingDecoder(), hang=True)
        stage = AnalysisStage(
            {"wifi": decoder}, workers=2, timeout_per_range=0.1,
            on_error="degrade", obs=obs,
        )
        try:
            buffer, ranges = _fake_inputs(1)
            t0 = time.monotonic()
            packets, _, fallbacks = stage.run(buffer, ranges)
            elapsed = time.monotonic() - t0
            assert elapsed < 1.0  # abandoned, not waited out
            assert packets == []
            assert fallbacks == 0
            assert stage.shed_ranges == 1
            records = stage.take_error_records()
            assert [r.action for r in records] == ["timeout"]
        finally:
            decoder.release()
            stage.close()

    def test_hung_worker_raises_typed_error_in_raise_mode(self):
        decoder = SlowDecoder(wrapped=_EmittingDecoder(), hang=True)
        stage = AnalysisStage(
            {"wifi": decoder}, workers=2, timeout_per_range=0.1,
            on_error="raise",
        )
        try:
            buffer, ranges = _fake_inputs(1)
            with pytest.raises(DecodeTimeoutError) as excinfo:
                stage.run(buffer, ranges)
            assert isinstance(excinfo.value, DeadlineError)
            assert isinstance(excinfo.value, RFDumpError)
            assert excinfo.value.protocol == "wifi"
        finally:
            decoder.release()
            stage.close()

    def test_skip_policy_sheds_timed_out_task(self):
        obs = Observability()
        decoder = SlowDecoder(wrapped=_EmittingDecoder(), hang=True)
        stage = AnalysisStage(
            {"wifi": decoder}, workers=2, timeout_per_range=0.1,
            on_error="skip", obs=obs,
        )
        try:
            buffer, ranges = _fake_inputs(1)
            packets, _, fallbacks = stage.run(buffer, ranges)
            assert packets == []
            assert fallbacks == 0
            assert obs.registry.value(
                "rfdump_ranges_shed_total", protocol="wifi"
            ) == 1
        finally:
            decoder.release()
            stage.close()

    def test_default_policy_sheds_a_timed_out_task_too(self):
        # on_error=None used to re-run a timed-out task in the calling
        # thread, unbounded without a budget: a hung decoder hung the
        # window until released.  One rule now: shed and recorded.
        decoder = SlowDecoder(wrapped=_EmittingDecoder(), hang=True)
        stage = AnalysisStage(
            {"wifi": decoder}, workers=2, timeout_per_range=0.1,
        )
        try:
            buffer, ranges = _fake_inputs(3)
            t0 = time.monotonic()
            packets, _, fallbacks = stage.run(buffer, ranges)
            assert time.monotonic() - t0 < 1.0
            assert packets == []
            assert fallbacks == 0
            assert stage.shed_ranges == 3
            records = stage.take_error_records()
            # the two in flight blew the watchdog; the third never got a
            # worker, because its protocol had just stalled two
            assert sorted(r.action for r in records) == [
                "shed", "timeout", "timeout"]
            assert sorted((r.start_sample, r.end_sample)
                          for r in records) == [
                (0, 1_000), (1_000, 2_000), (2_000, 3_000)]
        finally:
            decoder.release()
            stage.close()

    def test_queued_task_deadline_runs_from_submit_time(self):
        # two workers, three tasks: the third never starts, and does not
        # get a watchdog period of its own once the first two have shown
        # the decoder is stalled — timeouts do not serialize (the old
        # loop waited timeout per future)
        decoder = SlowDecoder(wrapped=_EmittingDecoder(), hang=True)
        stage = AnalysisStage(
            {"wifi": decoder}, workers=2,
            timeout_per_range=0.15, on_error="degrade",
        )
        try:
            buffer, ranges = _fake_inputs(3)
            t0 = time.monotonic()
            packets, _, _ = stage.run(buffer, ranges)
            elapsed = time.monotonic() - t0
            assert packets == []
            assert stage.shed_ranges == 3
            # everything expired at ~0.15s from submit; well under the
            # 0.30s+ a per-future countdown would serialize into
            assert elapsed < 0.29
        finally:
            decoder.release()
            stage.close()

    def test_serial_and_parallel_identical_with_generous_deadline(
            self, wifi_trace):
        serial = RFDumpMonitor(protocols=("wifi",)).process(
            wifi_trace.buffer)
        monitor = RFDumpMonitor(config=MonitorConfig(
            protocols=("wifi",), workers=4, deadline_ms=30_000.0,
        ))
        with monitor:
            report = monitor.process(wifi_trace.buffer)
        assert report.packets == serial.packets
        assert report.shed_ranges == 0
        assert not report.deadline_missed
        assert monitor.deadline_misses == 0


# -- one analysis path: inline and pooled share order and budget check -------

class _SpyDecoder(_EmittingDecoder):
    """Logs every scanned range; optionally blocks until told."""

    def __init__(self, until=None):
        self.scanned = []
        self.until = until

    def scan(self, buffer, **kwargs):
        self.scanned.append((buffer.start_sample, buffer.end_sample))
        if self.until is not None:
            self.until()
        return super().scan(buffer, **kwargs)


class TestOneAnalysisPath:
    def test_one_worker_scans_in_priority_order(self, mixed_trace):
        # the default path: rfdump --deadline-ms, the daemon, the e2e
        # benchmark.  It used to walk dispatch order whatever the flag's
        # help text promised.
        spy = _SpyDecoder()
        monitor = RFDumpMonitor(deadline_ms=30_000.0)
        for protocol in ("wifi", "bluetooth"):
            monitor.analysis_stage.decoders[protocol] = spy
        report = monitor.process(mixed_trace.buffer)
        dispatched = [(r.start_sample, r.end_sample)
                      for rs in report.ranges.values() for r in rs]
        by_priority = [(r.start_sample, r.end_sample)
                       for _, r in _by_priority(report.ranges)]
        assert by_priority != dispatched  # or this test shows nothing
        assert spy.scanned == by_priority
        assert len(report.packets) == len(dispatched)

    def test_mid_window_overrun_sheds_the_same_tail_inline_and_pooled(self):
        """Every scan outlasts the budget.  Inline cannot abandon the
        first, so it keeps that packet and sheds the rest; the pool
        abandons the two it had in flight and sheds the rest — with the
        same record for every range both declined to start."""
        confidences = [0.2, 0.9, 0.5, 0.7, 0.1, 0.8]
        buffer = SampleBuffer.from_array([0j] * 6_000)
        ranges = {"wifi": [
            _rng(i * 1_000, (i + 1) * 1_000, confidence=c)
            for i, c in enumerate(confidences)
        ]}
        by_priority = [(r.start_sample, r.end_sample)
                       for _, r in _by_priority(ranges)]
        runs = {}
        for workers in (1, 2):
            budget = WindowBudget(0.1)
            spy = _SpyDecoder(
                until=lambda b=budget: time.sleep(max(b.remaining(), 0) + 0.2))
            stage = AnalysisStage({"wifi": spy}, workers=workers)
            with stage:
                packets, _, _ = stage.run(buffer, ranges, budget=budget)
            records = stage.take_error_records()
            assert sorted(spy.scanned) == sorted(by_priority[:workers])
            assert stage.shed_ranges == 6 - len(packets)
            runs[workers] = (packets, records)

        packets, inline = runs[1]
        assert [(p.start_sample, p.end_sample) for p in packets] == \
            by_priority[:1]
        assert [(r.start_sample, r.end_sample) for r in inline] == \
            by_priority[1:]
        assert {(r.action, r.error) for r in inline} == {
            ("shed", "DeadlineError")}

        packets, pooled = runs[2]
        assert packets == []
        timed_out = [r for r in pooled if r.action == "timeout"]
        assert sorted((r.start_sample, r.end_sample) for r in timed_out) == \
            sorted(by_priority[:2])
        assert [r for r in pooled if r.action != "timeout"] == inline[1:]


# -- leaked-worker accounting ------------------------------------------------

class TestLeakedWorkers:
    def test_leak_counted_then_reclaimed_on_release(self):
        obs = Observability()
        decoder = SlowDecoder(wrapped=_EmittingDecoder(), hang=True)
        stage = AnalysisStage(
            {"wifi": decoder}, workers=2, timeout_per_range=0.1,
            on_error="degrade", obs=obs,
        )
        try:
            buffer, ranges = _fake_inputs(1)
            stage.run(buffer, ranges)
            assert obs.registry.value("rfdump_parallel_leaked_workers") == 1
            decoder.release()
            deadline = time.monotonic() + 5.0
            while (obs.registry.value("rfdump_parallel_leaked_workers") != 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert obs.registry.value("rfdump_parallel_leaked_workers") == 0
        finally:
            decoder.release()
            stage.close()

    def test_degrade_rebuilds_pool_when_leaks_exhaust_it(self):
        obs = Observability()
        # only the first two scans hang; after the pool rebuild the decoder
        # behaves, proving the fresh pool actually does the work
        decoder = SlowDecoder(wrapped=_EmittingDecoder(), hang=True,
                              at=(0, 1))
        stage = AnalysisStage(
            {"wifi": decoder}, workers=2, timeout_per_range=0.1,
            on_error="degrade", obs=obs,
        )
        try:
            buffer, ranges = _fake_inputs(2)
            packets, _, _ = stage.run(buffer, ranges)
            assert packets == []
            assert stage.leak_rebuilds == 0
            # every slot is now leaked; the next run must rebuild
            packets, _, _ = stage.run(buffer, ranges)
            assert stage.leak_rebuilds == 1
            assert len(packets) == 2
            assert obs.registry.value(
                "rfdump_parallel_pool_restarts_total") == 1
        finally:
            decoder.release()
            stage.close()


# -- streaming backpressure --------------------------------------------------

class TestStreamingBackpressure:
    def test_overrunning_windows_raise_level_and_shed(self, wifi_trace):
        monitor = StreamingMonitor(config=MonitorConfig(
            protocols=("wifi",), deadline_ms=0.001,  # 1 us: always over
        ))
        reports = [
            monitor.process(window)
            for window in split_windows(wifi_trace.buffer, 160_000)
        ]
        monitor.flush()
        scheduler = monitor.monitor.deadline_scheduler
        assert monitor.deadline_misses == len(reports)
        assert scheduler.controller.level > 0.0
        # the budget is pre-expired at admission, so every dispatched
        # range was shed before demodulation and nothing decoded
        assert monitor.ranges_shed > 0
        assert monitor.packets == []
        shed_records = [e for r in reports for e in r.errors
                        if e.action == "shed"]
        assert len(shed_records) == monitor.ranges_shed
        assert all(r.latency_seconds > 0.0 for r in reports)
        assert all(r.deadline_missed for r in reports)

    def test_no_deadline_means_no_scheduler_and_no_overhead(self, wifi_trace):
        monitor = StreamingMonitor(config=MonitorConfig(protocols=("wifi",)))
        for window in split_windows(wifi_trace.buffer, 160_000):
            report = monitor.process(window)
            assert not report.deadline_missed
            assert report.latency_seconds > 0.0
        monitor.flush()
        assert monitor.monitor.deadline_scheduler is None
        assert monitor.deadline_misses == 0
        assert monitor.ranges_shed == 0


# -- Histogram.quantile ------------------------------------------------------

class TestHistogramQuantile:
    def _hist(self):
        return MetricsRegistry().histogram("h_seconds", buckets=(0.1, 1.0))

    def test_empty_histogram_reports_zero(self):
        assert self._hist().quantile(0.5) == 0.0

    def test_conservative_bucket_upper_bound(self):
        hist = self._hist()
        for _ in range(9):
            hist.observe(0.05)
        hist.observe(0.5)
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(0.99) == 1.0
        assert hist.quantile(0.0) == 0.1  # rank floors at 1

    def test_overflow_bucket_is_inf(self):
        hist = self._hist()
        hist.observe(5.0)
        assert hist.quantile(0.5) == float("inf")

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            self._hist().quantile(1.5)


# -- the rfbench latency SLO gate --------------------------------------------

def _result(name, meta):
    return types.SimpleNamespace(name=name, meta=meta)


class TestRfbenchLatencyGate:
    def test_parse_ok(self):
        assert _parse_latency_requirements(["window_latency:0.45"]) == [
            ("window_latency", 0.45)
        ]

    @pytest.mark.parametrize("spec", ["nocolon", ":0.45", "name:abc",
                                      "name:-1"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(SystemExit):
            _parse_latency_requirements([spec])

    def test_gate_passes_under_limit(self, capsys):
        results = [_result("window_latency",
                           {"latency": {"p99": 0.08, "p50": 0.05,
                                        "windows": 10}})]
        assert _check_latency_requirements(
            results, [("window_latency", 0.45)]) == []
        assert "meets the 450.0ms SLO" in capsys.readouterr().out

    def test_gate_fails_over_limit(self):
        results = [_result("window_latency",
                           {"latency": {"p99": 0.9, "p50": 0.1,
                                        "windows": 10}})]
        (message,) = _check_latency_requirements(
            results, [("window_latency", 0.45)])
        assert "exceeds" in message

    def test_gate_fails_without_latency_report(self):
        (message,) = _check_latency_requirements(
            [_result("peak_detection", {"tags": []})],
            [("peak_detection", 0.45)])
        assert "no latency report" in message
        assert _check_latency_requirements([], [("missing", 0.1)])


class TestRfdumpCli:
    def test_deadline_flag_parsed(self):
        args = build_rfdump_parser().parse_args(
            ["trace.iq", "--deadline-ms", "100"])
        assert args.deadline_ms == 100.0
        assert build_rfdump_parser().parse_args(
            ["trace.iq"]).deadline_ms is None


# -- the ISSUE acceptance scenario -------------------------------------------

class TestAcceptance:
    def test_stalled_decoder_is_shed_others_byte_identical(self, mixed_trace):
        """One permanently-stalled demodulator under a deadline: the run
        completes within 2x budget, the stalled protocol's ranges are
        recorded as shed/timeout, and the healthy protocol's packets are
        byte-identical to the fault-free run."""
        config = MonitorConfig(
            protocols=("wifi", "bluetooth"), workers=2,
            on_error="degrade", timeout=0.1, deadline_ms=2_000.0,
        )
        with RFDumpMonitor(config=config) as baseline:
            clean = baseline.process(mixed_trace.buffer)
        clean_bt = [p for p in clean.packets if p.protocol == "bluetooth"]
        assert clean_bt  # the comparison must compare something

        monitor = RFDumpMonitor(config=config)
        stage = monitor.analysis_stage
        hang = SlowDecoder(wrapped=stage.decoders["wifi"], hang=True)
        stage.decoders["wifi"] = hang
        try:
            report = monitor.process(mixed_trace.buffer)
            # within 2x the configured window budget despite the stall
            assert report.latency_seconds < 2 * 2.0
            wifi_records = [e for e in report.errors if e.component == "wifi"]
            assert wifi_records
            assert all(e.action in ("timeout", "shed") for e in wifi_records)
            assert [p for p in report.packets if p.protocol == "wifi"] == []
            faulted_bt = [p for p in report.packets
                          if p.protocol == "bluetooth"]
            assert faulted_bt == clean_bt
            assert monitor.ranges_shed >= 1
        finally:
            hang.release()
            stage.close()
