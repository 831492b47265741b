#!/usr/bin/env python
"""Compare the three monitoring architectures on one trace (mini Figure 9).

Runs the naive architecture (every demodulator sees every sample), the
energy-filtered naive architecture, and RFDump over the same 802.11 +
Bluetooth trace, reporting decoded packets and CPU cost for each — the
paper's Figure 9 in miniature.

Run:  python examples/architecture_comparison.py
"""

import time

from repro import (
    BluetoothL2PingSession,
    EnergyNaiveMonitor,
    MonitorConfig,
    NaiveMonitor,
    RFDumpMonitor,
    Scenario,
    WifiPingSession,
    render_summary,
)


def main():
    scenario = Scenario(duration=0.3, seed=7)
    scenario.add(WifiPingSession(n_pings=6, snr_db=20.0, interval=48e-3))
    scenario.add(BluetoothL2PingSession(n_pings=50, snr_db=20.0, interval_slots=6))
    trace = scenario.render()
    print(f"medium utilization: {trace.ground_truth.busy_fraction() * 100:.1f}%")

    config = MonitorConfig(sample_rate=trace.sample_rate,
                           center_freq=trace.center_freq)
    architectures = [
        ("naive", NaiveMonitor(config)),
        ("naive + energy filter", EnergyNaiveMonitor(config)),
        ("RFDump (timing)", RFDumpMonitor(config.replace(kinds=("timing",)))),
        ("RFDump (phase)", RFDumpMonitor(config.replace(kinds=("phase",)))),
        ("RFDump (timing+phase)", RFDumpMonitor(config)),
    ]

    rows = []
    for name, monitor in architectures:
        start = time.perf_counter()
        report = monitor.process(trace.buffer)
        wall = time.perf_counter() - start
        rows.append(
            {
                "architecture": name,
                "CPU/RT": round(wall / trace.duration, 2),
                "wifi pkts": len(report.packets_for("wifi")),
                "bt pkts": len(report.packets_for("bluetooth")),
                "samples demodulated": report.clock.samples_touched.get(
                    "demodulation", 0
                ),
            }
        )

    print()
    print(render_summary(
        "Architecture comparison (same trace, same demodulators)",
        rows,
        ["architecture", "CPU/RT", "wifi pkts", "bt pkts", "samples demodulated"],
    ))
    print("\nRFDump decodes the same packets while demodulating a fraction "
          "of the samples — the paper's core efficiency claim.")


if __name__ == "__main__":
    main()
