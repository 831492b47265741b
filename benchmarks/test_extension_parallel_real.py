"""Extension — the *measured* multi-core speedup (Section 2.2, cashed in).

`test_extension_parallelism` reports what a parallel analysis stage
*should* gain; this benchmark runs the real one (`repro.core.analysis_stage`)
on the Table-3-shaped traffic mix and compares measured wall-clock
speedup against the estimator's Amdahl ceiling.

Two configurations are measured:

* **cpu-bound** — the stock demodulators over a process pool.  True
  multi-core speedup, so the >= 1.2x assertion is gated on the host
  actually having cores to parallelize over.
* **blocking analyzers** — the same pipeline with each analyzer padded
  by a fixed per-range block (modelling a front end whose analyzers
  wait on I/O, e.g. the paper's USRP pull path).  Blocked time overlaps
  on any host, so this validates the executor fan-out — speedup >= 1.2x
  with 4 workers — even on a single-core CI runner.

Both must stay under the Amdahl limit derived from their own serial run.
"""

import os
import time

import pytest

from repro import BluetoothL2PingSession, RFDumpMonitor, Scenario, WifiPingSession
from repro.analysis import render_summary
from repro.core.parallelism import estimate_parallel_speedup

WORKERS = 4


@pytest.fixture(scope="module")
def mix_trace():
    scenario = Scenario(duration=0.3, seed=1900)
    scenario.add(WifiPingSession(n_pings=8, snr_db=20.0, interval=36e-3))
    scenario.add(
        BluetoothL2PingSession(n_pings=40, snr_db=20.0, interval_slots=6)
    )
    return scenario.render()


class _BlockingDecoder:
    """Wraps a stream decoder with a fixed per-scan block (simulated I/O)."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay

    def scan(self, buffer, **kwargs):
        time.sleep(self.delay)
        return self.inner.scan(buffer, **kwargs)


def _make_monitor(trace, workers, delay=0.0):
    monitor = RFDumpMonitor(
        protocols=("wifi", "bluetooth"),
        noise_floor=trace.noise_power,
        workers=workers,
        backend="thread" if delay else "process",
    )
    if delay:
        decoders = monitor.analysis_stage.decoders
        for protocol, decoder in list(decoders.items()):
            decoders[protocol] = _BlockingDecoder(decoder, delay)
    return monitor


def _timed_run(trace, workers, delay=0.0):
    with _make_monitor(trace, workers, delay) as monitor:
        start = time.perf_counter()
        report = monitor.process(trace.buffer)
        wall = time.perf_counter() - start
    return report, wall


def _packet_key(p):
    return (p.protocol, p.start_sample, p.end_sample, p.ok, p.decoder,
            p.payload_size, p.channel)


def test_extension_parallel_real(mix_trace, report_table, benchmark):
    state = {}

    def run_experiment():
        state["serial"] = _timed_run(mix_trace, workers=1)
        state["parallel"] = _timed_run(mix_trace, workers=WORKERS)
        state["serial_io"] = _timed_run(mix_trace, workers=1, delay=0.02)
        state["parallel_io"] = _timed_run(mix_trace, workers=WORKERS, delay=0.02)

    benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = []
    results = {}
    for label, serial_key, parallel_key in (
        ("cpu-bound (process pool)", "serial", "parallel"),
        ("blocking analyzers (thread pool)", "serial_io", "parallel_io"),
    ):
        serial_report, serial_wall = state[serial_key]
        parallel_report, parallel_wall = state[parallel_key]
        estimate = estimate_parallel_speedup(
            serial_report, workers=WORKERS, granularity="range"
        )
        measured = serial_wall / parallel_wall
        results[label] = (measured, estimate, serial_report, parallel_report)
        rows.append(
            {
                "configuration": label,
                "workers": WORKERS,
                "serial wall (s)": round(serial_wall, 3),
                "parallel wall (s)": round(parallel_wall, 3),
                "measured speedup": round(measured, 2),
                "estimated speedup": round(estimate.speedup, 2),
                "Amdahl limit": round(estimate.amdahl_limit, 2),
                "fallbacks": parallel_report.parallel_fallbacks,
            }
        )
    report_table(
        "extension_parallel_real",
        render_summary(
            f"Extension: measured speedup of the real parallel analysis "
            f"stage ({os.cpu_count()} host cores)",
            rows,
            ["configuration", "workers", "serial wall (s)",
             "parallel wall (s)", "measured speedup", "estimated speedup",
             "Amdahl limit", "fallbacks"],
        ),
    )

    for label, (measured, estimate, serial_report, parallel_report) in results.items():
        # parallel output is list-identical to serial (determinism)
        assert [_packet_key(p) for p in parallel_report.packets] == [
            _packet_key(p) for p in serial_report.packets
        ], label
        assert parallel_report.parallel_fallbacks == 0, label
        # measured speedup can never beat the serial detection prefix
        # (slack covers wall-clock noise on a loaded host)
        assert measured <= estimate.amdahl_limit * 1.25, label

    measured_io, estimate_io, _, _ = results["blocking analyzers (thread pool)"]
    assert measured_io >= 1.2
    assert measured_io <= estimate_io.amdahl_limit * 1.25

    if (os.cpu_count() or 1) >= WORKERS:
        measured_cpu, _, _, _ = results["cpu-bound (process pool)"]
        assert measured_cpu >= 1.2
