"""End-to-end integration: scenario -> trace -> RFDump -> scored report."""

import numpy as np
import pytest

from repro import (
    MicrowaveSource,
    RFDumpMonitor,
    Scenario,
    WifiBroadcastFlood,
    WifiPingSession,
    ZigbeePingSession,
    packet_miss_rate,
    render_packet_log,
)
from repro.analysis.stats import false_positive_sample_rate, match_detections


class TestMixedTraffic:
    def test_both_protocols_detected(self, mixed_trace):
        report = RFDumpMonitor().process(mixed_trace.buffer)
        truth = mixed_trace.ground_truth
        wifi_miss = packet_miss_rate(
            truth, report.classifications_for("wifi"), "wifi"
        )
        assert wifi_miss < 0.05
        bt = match_detections(
            truth, report.classifications_for("bluetooth"), "bluetooth"
        )
        # collisions and session-first packets may be missed (Table 3)
        assert bt.miss_rate < 0.6

    def test_decoded_packets_match_truth_positions(self, mixed_trace):
        report = RFDumpMonitor().process(mixed_trace.buffer)
        truth = mixed_trace.ground_truth
        wifi_records = report.packets_for("wifi")
        assert packet_miss_rate(truth, wifi_records, "wifi") < 0.05

    def test_false_positive_rates_small(self, mixed_trace):
        report = RFDumpMonitor().process(mixed_trace.buffer)
        for protocol in ("wifi", "bluetooth"):
            assert false_positive_sample_rate(
                mixed_trace.ground_truth, report.forwarded_ranges(protocol),
                report.total_samples, protocol) < 0.05

    def test_packet_log_renders(self, mixed_trace):
        report = RFDumpMonitor().process(mixed_trace.buffer)
        log = render_packet_log(report.packets, mixed_trace.sample_rate)
        assert "wifi" in log


class TestBroadcast:
    def test_difs_detector_end_to_end(self):
        scenario = Scenario(duration=0.06, seed=21)
        scenario.add(WifiBroadcastFlood(n_packets=10, snr_db=20.0, seed=3))
        trace = scenario.render()
        mon = RFDumpMonitor(kinds=("timing",), demodulate=False)
        report = mon.process(trace.buffer)
        miss = packet_miss_rate(
            trace.ground_truth, report.classifications_for("wifi"), "wifi"
        )
        assert miss < 0.05


class TestMicrowaveInterference:
    def test_microwave_classified(self):
        scenario = Scenario(duration=0.1, seed=22)
        scenario.add(MicrowaveSource(duration=0.1, snr_db=15.0))
        trace = scenario.render()
        mon = RFDumpMonitor(
            protocols=("microwave",), kinds=("timing",), demodulate=False
        )
        report = mon.process(trace.buffer)
        miss = packet_miss_rate(
            trace.ground_truth, report.classifications_for("microwave"),
            "microwave",
        )
        assert miss < 0.2  # first burst of a train has no predecessor

    def test_microwave_plus_wifi(self):
        scenario = Scenario(duration=0.1, seed=23)
        scenario.add(MicrowaveSource(duration=0.1, snr_db=12.0))
        # schedule the ping exchanges into the magnetron's off half-cycles
        # (colliding ones are legitimately lost; see the traffic-mix tests)
        scenario.add(
            WifiPingSession(
                n_pings=3, snr_db=20.0, payload_size=200,
                start=9e-3, interval=33.333e-3,
            )
        )
        trace = scenario.render()
        mon = RFDumpMonitor(
            protocols=("wifi", "microwave"), demodulate=False
        )
        report = mon.process(trace.buffer)
        assert report.classifications_for("microwave")
        assert report.classifications_for("wifi")


class TestZigbeeEndToEnd:
    def test_zigbee_pipeline(self):
        scenario = Scenario(duration=0.06, seed=24)
        scenario.add(ZigbeePingSession(n_packets=4, snr_db=20.0, interval=12e-3))
        trace = scenario.render()
        mon = RFDumpMonitor(protocols=("zigbee",), kinds=("timing",))
        report = mon.process(trace.buffer)
        truth = trace.ground_truth
        miss = packet_miss_rate(
            truth, report.classifications_for("zigbee"), "zigbee"
        )
        assert miss < 0.05
        assert len(report.packets_for("zigbee")) >= len(truth.observable("zigbee")) - 1


class TestSnrBehaviour:
    """Miniature Figure 6: near-zero misses at high SNR, cliff at low."""

    def _miss_at(self, snr_db):
        scenario = Scenario(duration=0.05, seed=31)
        scenario.add(
            WifiPingSession(n_pings=2, snr_db=snr_db, interval=22e-3, seed=6)
        )
        trace = scenario.render()
        mon = RFDumpMonitor(protocols=("wifi",), demodulate=False)
        report = mon.process(trace.buffer)
        return packet_miss_rate(
            trace.ground_truth, report.classifications_for("wifi"), "wifi"
        )

    def test_high_snr_near_zero(self):
        assert self._miss_at(20.0) == 0.0

    def test_below_threshold_all_missed(self):
        assert self._miss_at(0.0) > 0.8
