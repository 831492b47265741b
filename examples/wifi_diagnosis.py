#!/usr/bin/env python
"""Wi-Fi troubleshooting session: the paper's motivating use case.

"When diagnosing Wi-Fi problems, a full picture is critical because
non-Wi-Fi users can reduce the (Wi-Fi) network capacity" (Section 2.1).
A user complains their pings are slow and lossy; the access point's own
counters show nothing wrong.  RFDump watches the ether and finds the
culprit: a microwave oven stealing half the airtime — and quantifies the
damage at the application layer via decoded ping RTTs.

Run:  python examples/wifi_diagnosis.py
"""

from repro import (
    MicrowaveSource,
    RFDumpMonitor,
    Scenario,
    WifiPingSession,
)
from repro.analysis import ping_report, station_traffic
from repro.analysis.diagnostics import diagnose_interference


def main():
    # the complaint: pings across the WLAN while someone heats lunch
    scenario = Scenario(duration=0.3, seed=27)
    scenario.add(
        WifiPingSession(
            n_pings=9, snr_db=20.0, payload_size=200,
            start=9e-3, interval=33.333e-3,
        )
    )
    scenario.add(MicrowaveSource(duration=0.3, snr_db=11.0))
    trace = scenario.render()

    monitor = RFDumpMonitor(protocols=("wifi", "microwave"))
    report = monitor.process(trace.buffer)

    # 1. who is talking (MAC layer)
    print("stations observed:")
    for addr, stat in station_traffic(report.packets).items():
        print(f"  {addr}: {stat.data_packets} data / {stat.ack_packets} ACKs, "
              f"{stat.bytes_sent} B sent")

    # 2. what the application experienced (decoded ping exchanges)
    pings = ping_report(report.packets, trace.sample_rate)
    print("\nping view (reconstructed from the ether):")
    print("  " + pings.summary().replace("\n", "\n  "))

    # 3. why: attribute the band's airtime
    diagnosis = diagnose_interference(report)
    print(f"\nband occupancy: {diagnosis.band_occupancy * 100:.1f}%")
    print(f"  Wi-Fi airtime:       {diagnosis.wifi_airtime * 100:5.1f}%")
    for name, share in diagnosis.interferer_airtime.items():
        print(f"  {name + ' airtime:':20s} {share * 100:5.1f}%")
    print(f"  unknown airtime:     {diagnosis.unknown_airtime * 100:5.1f}%")
    print(f"-> non-Wi-Fi pressure: {diagnosis.capacity_pressure * 100:.1f}% "
          f"of the band (transmission opportunities lost)")

    # 4. and what watching cost
    print(f"\nmonitor cost: {report.cpu_over_realtime:.2f}x real time "
          f"(single core)")


if __name__ == "__main__":
    main()
