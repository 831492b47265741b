#!/usr/bin/env python
"""Band scanner: one radio surveying several 8 MHz slices of the ISM band.

Section 3.1 notes that cheap energy/peak detection matters most "when
scanning, e.g. a single radio looks at multiple frequency bands over
time, since efficiency is then a concern even for idle bands".  This
example retunes across three centers while a Bluetooth piconet hops and a
Wi-Fi station pings, runs one detection-only RFDump monitor per center
(detector channel maps are center-specific) and prints the per-band
census a site survey wants, built from the monitors' reports.

Run:  python examples/band_scanner.py
"""

from collections import Counter, defaultdict

from repro import (BluetoothL2PingSession, RFDumpMonitor, Scenario,
                   WifiPingSession, render_summary)
from repro.emulator.scanning import ScanPlan, render_scan


def main():
    scenario = Scenario(duration=0.3, seed=13)
    # the Wi-Fi network lives on channel 6 (2.437 GHz); the Bluetooth
    # piconet hops across all 79 channels
    scenario.add(
        WifiPingSession(n_pings=8, snr_db=20.0, interval=35e-3, channel=6)
    )
    scenario.add(
        BluetoothL2PingSession(n_pings=40, snr_db=20.0, interval_slots=6)
    )

    plan = ScanPlan(
        centers=[2.412e9, 2.437e9, 2.462e9],  # 802.11 channels 1 / 6 / 11
        dwell=0.02,
    )
    windows = render_scan(scenario, plan)
    print(f"scanning {len(plan.centers)} bands, {len(windows)} dwells of "
          f"{plan.dwell * 1e3:.0f} ms")

    monitors = {
        center: RFDumpMonitor(center_freq=center, demodulate=False)
        for center in plan.centers
    }
    reports = defaultdict(list)
    for window in windows:
        center = window.dwell.center_freq
        monitor = monitors[center]
        report = monitor.process(window.buffer)
        monitor.noise_floor = report.noise_floor  # carried across visits
        reports[center].append(report)

    rows = []
    for center in plan.centers:
        band = reports[center]
        total = sum(r.total_samples for r in band)
        busy = sum(p.length for r in band for p in r.peaks)
        classified = Counter(c.protocol for r in band
                             for c in r.classifications)
        rows.append({
            "center (GHz)": round(center / 1e9, 4),
            "dwells": len(band),
            "occupancy (%)": round(100 * busy / max(total, 1), 2),
            "peaks": sum(len(r.peaks) for r in band),
            "classified": dict(sorted(classified.items())),
        })
    print()
    print(render_summary(
        "Per-band census",
        rows,
        ["center (GHz)", "dwells", "occupancy (%)", "peaks", "classified"],
    ))
    print("\nWi-Fi shows up only in the channel-6 dwells; the hopping "
          "piconet contributes a little everywhere.")


if __name__ == "__main__":
    main()
