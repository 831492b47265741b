"""Table 3 — traffic mix: simultaneous 802.11b + Bluetooth transmitters.

Paper (1000 wifi packets + 1000 l2pings, SNR comfortable):

    Detector  miss 802.11b  miss BT   FP 802.11b  FP BT
    Timing    0.018         0.024     0.0007      0.007
    Phase     0.018         0.012     0.01        0.0002

Observations to reproduce: (a) small residual miss rates dominated by
collisions — discounting collided packets both detectors are near zero;
(b) the timing detector's *Bluetooth* false positives come from periodic
ICMP pings whose 20 ms spacing is a multiple of the 625 us slot.

The third row is the monitor's default detector set, timing and phase
together.  Its miss rates are the union of both detectors' claims; its
false positives are what dispatch forwards after it resolves contested
peaks: a Bluetooth timing claim on a peak the Barker phase test calls
802.11b end to end is not forwarded, which brings the combined row's
Bluetooth FP down to the phase row's level.
"""

import pytest

from repro import BluetoothL2PingSession, Scenario, WifiPingSession
from repro.analysis import render_summary
from repro.analysis.stats import false_positive_sample_rate, match_detections
from repro.core.pipeline import RFDumpMonitor

PAPER = {
    "Timing": {"wifi_miss": 0.018, "bt_miss": 0.024, "wifi_fp": 0.0007, "bt_fp": 0.007},
    "Phase": {"wifi_miss": 0.018, "bt_miss": 0.012, "wifi_fp": 0.01, "bt_fp": 0.0002},
}


@pytest.fixture(scope="module")
def mix_trace():
    scenario = Scenario(duration=1.5, seed=900)
    # 60 ms ping interval: deliberately a multiple of the Bluetooth slot
    # (the paper's periodic ICMP pings "sometimes had a timing similar to
    # that of Bluetooth"), at a modest medium utilization so collisions
    # stay a small fraction as in the paper's testbed.  500-byte payloads
    # give 4.9 ms data packets — longer than 5 Bluetooth slots, so only
    # the SIFS-spaced ACKs can masquerade as Bluetooth.
    scenario.add(
        WifiPingSession(
            n_pings=24, snr_db=20.0, interval=60e-3, payload_size=500,
            seed=901,
        )
    )
    scenario.add(
        BluetoothL2PingSession(n_pings=195, snr_db=20.0, interval_slots=12)
    )
    return scenario.render()


def _evaluate(trace, kinds):
    monitor = RFDumpMonitor(
        protocols=("wifi", "bluetooth"),
        kinds=kinds,
        center_freq=trace.center_freq,
        demodulate=False,
        noise_floor=trace.noise_power,
    )
    report = monitor.process(trace.buffer)
    truth = trace.ground_truth
    every_claim = monitor.dispatcher.dispatch(
        report.classifications, trace.buffer.end_sample)
    out = {
        "bt_ranges": len(report.ranges.get("bluetooth", [])),
        "bt_samples": report.forwarded_samples("bluetooth"),
        "bt_ranges_every_claim": len(every_claim.get("bluetooth", [])),
        "bt_samples_every_claim": sum(
            r.length for r in every_claim.get("bluetooth", [])),
    }
    for protocol, tag in (("wifi", "wifi"), ("bluetooth", "bt")):
        result = match_detections(
            truth, report.classifications_for(protocol), protocol
        )
        out[f"{tag}_miss"] = result.miss_rate
        non_collided = [
            t for t in result.missed if not truth.collided(t)
        ]
        out[f"{tag}_miss_excl_collisions"] = len(non_collided) / max(
            len(result.found) + len(result.missed), 1
        )
        out[f"{tag}_fp"] = false_positive_sample_rate(
            truth,
            report.forwarded_ranges(protocol),
            report.total_samples,
            protocol,
        )
    return out


COMBINED = "Timing + phase (monitor default)"


def test_table3(mix_trace, report_table, benchmark):
    results = {}

    def run_experiment():
        results["Timing"] = _evaluate(mix_trace, ("timing",))
        results["Phase"] = _evaluate(mix_trace, ("phase",))
        results[COMBINED] = _evaluate(mix_trace, ("timing", "phase"))

    benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = []
    for detector in ("Timing", "Phase", COMBINED):
        r = results[detector]
        rows.append(
            {
                "Detector": detector,
                "miss 802.11b": round(r["wifi_miss"], 4),
                "miss BT": round(r["bt_miss"], 4),
                "FP 802.11b": round(r["wifi_fp"], 5),
                "FP BT": round(r["bt_fp"], 5),
                "miss 802.11b (no coll.)": round(r["wifi_miss_excl_collisions"], 4),
                "miss BT (no coll.)": round(r["bt_miss_excl_collisions"], 4),
            }
        )
    paper_rows = [
        {
            "Detector": f"{k} (paper)",
            "miss 802.11b": v["wifi_miss"],
            "miss BT": v["bt_miss"],
            "FP 802.11b": v["wifi_fp"],
            "FP BT": v["bt_fp"],
        }
        for k, v in PAPER.items()
    ]
    combined = results[COMBINED]
    report_table(
        "table3",
        render_summary(
            "Table 3: traffic mix results (miss rate / false-positive sample rate)",
            rows + paper_rows,
            ["Detector", "miss 802.11b", "miss BT", "FP 802.11b", "FP BT",
             "miss 802.11b (no coll.)", "miss BT (no coll.)"],
        )
        + f"\n{COMBINED}: {combined['bt_ranges']} Bluetooth ranges / "
        f"{combined['bt_samples']} samples forwarded "
        f"({combined['bt_ranges_every_claim']} / "
        f"{combined['bt_samples_every_claim']} with every claim forwarded)",
    )

    for detector in ("Timing", "Phase", COMBINED):
        r = results[detector]
        # residual miss rates are dominated by collisions; discounting
        # them both detectors are near zero (the paper's observation)
        assert r["wifi_miss"] <= 0.15
        assert r["bt_miss"] <= 0.40
        assert r["wifi_miss_excl_collisions"] <= 0.05
        assert r["bt_miss_excl_collisions"] <= 0.15
        # false-positive sample rates stay small
        assert r["wifi_fp"] <= 0.05
        assert r["bt_fp"] <= 0.05
    # the paper's asymmetry: periodic pings give the *timing* detector a
    # higher Bluetooth false-positive rate than the phase detector
    assert results["Timing"]["bt_fp"] > results["Phase"]["bt_fp"]
    # resolving contested peaks removes the slot-coincidence forwards:
    # the combined set forwards less to Bluetooth than its claims would,
    # and its Bluetooth FP falls below the timing row's
    assert combined["bt_ranges"] < combined["bt_ranges_every_claim"]
    assert combined["bt_fp"] < results["Timing"]["bt_fp"]
