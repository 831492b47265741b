"""Extension — multi-core speedup estimate (Section 2.2).

"Note that the RFDump architecture in Figure 2 (similar to the naive
architecture) has inherent parallelism that can be exploited using
multi-threading. [...] our platform (GNU Radio) currently does not
support multi-threading, so the measurements in this paper only use a
single core."

The monitor decodes inline on one core, as the paper measured.  This
benchmark runs the standard mixed workload once and estimates what a
multithreaded deployment would gain: the detection stage is a serial
prefix (every detector reads the shared peak metadata), while the
per-protocol analyzers are independent, so the makespan of scheduling
them over k workers (LPT greedy) bounds the parallel time.  It is an
estimate only: on 2 cores, running the real decodes over a thread or
process pool lost to the inline loop (EXPERIMENTS.md, "Removed:
analysis-stage worker pools and deadlines").
"""

import heapq
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro import BluetoothL2PingSession, RFDumpMonitor, Scenario, WifiPingSession
from repro.analysis import render_summary
from repro.core.accounting import StageClock
from repro.core.pipeline import MonitorReport


def lpt_makespan(durations: List[float], workers: int) -> float:
    """Makespan of the Longest-Processing-Time greedy schedule.

    LPT is within 4/3 of optimal for identical machines — ample for an
    estimate.  ``workers <= 0`` means unbounded (max of the durations).
    The least-loaded worker is kept at the top of a heap: O(n log k).
    """
    if not durations:
        return 0.0
    if workers <= 0 or workers >= len(durations):
        return max(durations)
    loads = [0.0] * workers  # already a valid (all-equal) min-heap
    for duration in sorted(durations, reverse=True):
        heapq.heapreplace(loads, loads[0] + duration)
    return max(loads)


@dataclass
class ParallelismEstimate:
    """Predicted multi-core behaviour of one monitoring run."""

    serial_seconds: float
    detection_seconds: float
    demod_by_protocol: Dict[str, float] = field(default_factory=dict)
    workers: int = 0  # 0 = unbounded

    @property
    def parallel_seconds(self) -> float:
        return self.detection_seconds + lpt_makespan(
            list(self.demod_by_protocol.values()), self.workers
        )

    @property
    def speedup(self) -> float:
        if self.parallel_seconds <= 0:
            return 1.0
        return self.serial_seconds / self.parallel_seconds

    @property
    def amdahl_limit(self) -> float:
        """Speedup ceiling from the serial detection prefix alone."""
        if self.detection_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.detection_seconds


def estimate_parallel_speedup(
    report: MonitorReport, workers: int = 0, granularity: str = "protocol"
) -> ParallelismEstimate:
    """Estimate the multithreaded runtime of a measured monitoring run.

    The per-protocol demodulation times come from the report's own
    accounting; everything else (peak detection, the fast detectors,
    dispatch) is the serial prefix.  ``granularity`` is the work unit
    handed to a worker: ``"protocol"`` (one thread per analyzer block,
    Figure 2 literally) or ``"range"`` (each protocol's time apportioned
    to its dispatched ranges by sample count).
    """
    serial = report.clock.total_seconds()
    demod_total = sum(report.demod_seconds_by_protocol.values())
    detection = max(serial - demod_total, 0.0)
    demod_units: Dict[str, float] = dict(report.demod_seconds_by_protocol)
    if granularity == "range":
        demod_units = {}
        for protocol, seconds in report.demod_seconds_by_protocol.items():
            ranges = report.ranges.get(protocol, [])
            total = sum(r.length for r in ranges)
            if total == 0:
                demod_units[protocol] = seconds
                continue
            for i, rng in enumerate(ranges):
                demod_units[f"{protocol}[{i}]"] = seconds * rng.length / total
    elif granularity != "protocol":
        raise ValueError("granularity must be 'protocol' or 'range'")
    return ParallelismEstimate(serial, detection, demod_units, workers)


@pytest.fixture(scope="module")
def mixed_report():
    scenario = Scenario(duration=0.3, seed=1900)
    scenario.add(WifiPingSession(n_pings=8, snr_db=20.0, interval=36e-3))
    scenario.add(
        BluetoothL2PingSession(n_pings=40, snr_db=20.0, interval_slots=6)
    )
    trace = scenario.render()
    monitor = RFDumpMonitor(
        protocols=("wifi", "bluetooth"), noise_floor=trace.noise_power
    )
    return trace, monitor.process(trace.buffer)


def test_extension_parallelism(report_table, mixed_report):
    trace, report = mixed_report
    rows = []
    for workers in (1, 2, 4, 8):
        by_block = estimate_parallel_speedup(report, workers=workers)
        by_range = estimate_parallel_speedup(
            report, workers=workers, granularity="range"
        )
        rows.append(
            {
                "workers": workers,
                "serial CPU/RT": round(by_block.serial_seconds / trace.duration, 2),
                "speedup (per analyzer)": round(by_block.speedup, 2),
                "speedup (per range)": round(by_range.speedup, 2),
                "Amdahl limit": round(by_block.amdahl_limit, 2),
            }
        )
    report_table(
        "extension_parallelism",
        render_summary(
            "Extension: estimated multi-core speedup of the Figure 2 pipeline",
            rows,
            ["workers", "serial CPU/RT", "speedup (per analyzer)",
             "speedup (per range)", "Amdahl limit"],
        ),
    )

    one = estimate_parallel_speedup(report, workers=1)
    many = estimate_parallel_speedup(report, workers=8, granularity="range")
    assert one.speedup == pytest.approx(1.0, abs=0.01)
    assert many.speedup > 1.3
    assert many.speedup <= many.amdahl_limit + 1e-9
    # apportioning preserves the total demodulation time, and the serial
    # accounting is the stage clock's
    assert sum(many.demod_by_protocol.values()) == pytest.approx(
        sum(report.demod_seconds_by_protocol.values()))
    assert one.serial_seconds == pytest.approx(report.clock.total_seconds())
    assert many.speedup >= estimate_parallel_speedup(report, 8).speedup


class TestLpt:
    def test_unbounded_is_max(self):
        assert lpt_makespan([3.0, 1.0, 2.0], 0) == 3.0

    def test_single_worker_is_sum(self):
        assert lpt_makespan([3.0, 1.0, 2.0], 1) == 6.0

    def test_two_workers_balanced(self):
        assert lpt_makespan([3.0, 3.0, 2.0, 2.0], 2) == 5.0

    def test_more_workers_than_jobs(self):
        assert lpt_makespan([4.0, 1.0], 5) == 4.0

    def test_empty(self):
        assert lpt_makespan([], 4) == 0.0

    def test_matches_naive_reference(self):
        """The heap schedule is the same LPT greedy, just O(n log k)."""

        def naive(durations, workers):
            loads = [0.0] * workers
            for duration in sorted(durations, reverse=True):
                loads[loads.index(min(loads))] += duration
            return max(loads)

        rng = random.Random(42)
        for _ in range(50):
            durations = [rng.random() for _ in range(rng.randint(2, 60))]
            workers = rng.randint(1, len(durations) - 1)
            assert lpt_makespan(durations, workers) == pytest.approx(
                naive(durations, workers)
            )

    def test_thousands_of_ranges_stay_cheap(self):
        durations = [((i * 2654435761) % 997) / 997 + 1e-3 for i in range(20000)]
        start = time.perf_counter()
        makespan = lpt_makespan(durations, 8)
        elapsed = time.perf_counter() - start
        # LPT bounds: never below the perfectly balanced load, never more
        # than one job above it
        assert makespan >= sum(durations) / 8
        assert makespan <= sum(durations) / 8 + max(durations)
        assert elapsed < 1.0


class TestEstimate:
    def _report(self, detection=1.0, demod=None):
        demod = demod or {}
        clock = StageClock(
            seconds={"peak_detection": detection,
                     "demodulation": sum(demod.values())}
        )
        return MonitorReport(
            total_samples=0, duration=1.0, peaks=None, classifications=[],
            ranges={}, packets=[], clock=clock,
            demod_seconds_by_protocol=demod,
        )

    def test_speedup_with_two_protocols(self):
        report = self._report(detection=1.0, demod={"wifi": 2.0, "bluetooth": 2.0})
        est = estimate_parallel_speedup(report)
        assert est.serial_seconds == pytest.approx(5.0)
        assert est.parallel_seconds == pytest.approx(3.0)
        assert est.speedup == pytest.approx(5.0 / 3.0)

    def test_workers_bound(self):
        report = self._report(
            detection=1.0, demod={"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0}
        )
        est1 = estimate_parallel_speedup(report, workers=1)
        est2 = estimate_parallel_speedup(report, workers=2)
        est4 = estimate_parallel_speedup(report, workers=4)
        assert est1.speedup == pytest.approx(1.0)
        assert est2.speedup < est4.speedup
        assert est4.parallel_seconds == pytest.approx(3.0)

    def test_amdahl_limit(self):
        report = self._report(detection=1.0, demod={"wifi": 9.0})
        est = estimate_parallel_speedup(report)
        assert est.amdahl_limit == pytest.approx(10.0)
        assert est.speedup <= est.amdahl_limit

    def test_no_demodulation(self):
        report = self._report(detection=0.5)
        assert estimate_parallel_speedup(report).speedup == pytest.approx(1.0)

    def test_rejects_unknown_granularity(self):
        report = self._report(detection=1.0, demod={"wifi": 1.0})
        with pytest.raises(ValueError):
            estimate_parallel_speedup(report, granularity="packet")
