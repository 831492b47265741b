"""Dispatch resolves contested peaks before anything is forwarded.

A Bluetooth timing claim on a peak the Barker phase test calls 802.11b,
with no Bluetooth phase or frequency detector backing it, is contested
(Table 3's observation (b): pings spaced at multiples of the 625 us
slot).  The Barker test re-scored on the peak's tail decides it:
chipping end to end overrules the timing claim, a tail that fails the
test (a Bluetooth packet fused behind an ACK) keeps it.  The detection
stage's classifications are reported unchanged; only what reaches the
demodulators shrinks.
"""

import numpy as np
import pytest

from repro import BluetoothL2PingSession, Scenario, WifiPingSession
from repro.core.detectors import (
    BluetoothTimingDetector,
    DbpskPhaseDetector,
    GfskPhaseDetector,
    WifiDifsTimingDetector,
    WifiSifsTimingDetector,
)
from repro.core.metadata import Peak
from repro.core.pipeline import RFDumpMonitor, default_detectors
from repro.dsp.samples import SampleBuffer
from repro.obs import Observability


def _all_forwarded(monitor, report, buffer):
    """The ranges the dispatcher makes of every classification — what
    reached the demodulators before contested peaks were resolved."""
    return monitor.dispatcher.dispatch(
        report.classifications, buffer.end_sample, buffer.start_sample)


def _bluetooth_timing_claims(report):
    return [c for c in report.classifications
            if c.detector == BluetoothTimingDetector().name]


@pytest.fixture(scope="module")
def ping_trace():
    """Wi-Fi pings 20 ms (32 slots) apart: every ACK is slot-aligned with
    the one before it."""
    scenario = Scenario(duration=0.1, seed=31)
    scenario.add(WifiPingSession(n_pings=5, snr_db=20.0, interval=20e-3,
                                 seed=32))
    return scenario.render()


@pytest.fixture(scope="module")
def mix_trace():
    """The same pings beside an l2ping session (Table 3 in miniature)."""
    scenario = Scenario(duration=0.12, seed=33)
    scenario.add(WifiPingSession(n_pings=6, snr_db=20.0, interval=20e-3,
                                 seed=34))
    # clock 100 hops three of the packets into the 8 MHz band
    scenario.add(BluetoothL2PingSession(n_pings=16, snr_db=20.0,
                                        interval_slots=12, start_clock=100))
    return scenario.render()


@pytest.fixture(scope="module")
def fused_trace():
    """A DH5 starting 1.4k samples into an ACK and outlasting it by 15k:
    one peak, Barker-chipped at its head and GFSK at its tail."""
    scenario = Scenario(duration=0.03, seed=21)
    scenario.add(WifiPingSession(n_pings=7, payload_size=30, interval=5e-3,
                                 snr_db=25.0, seed=22))
    scenario.add(BluetoothL2PingSession(n_pings=25, interval_slots=2,
                                        snr_db=25.0, start=1.75e-3))
    return scenario.render()


class TestSlotSpacedPings:
    def test_acks_on_slot_multiples_reach_no_bluetooth_demodulator(
            self, ping_trace):
        monitor = RFDumpMonitor()
        report = monitor.process(ping_trace.buffer)
        claims = _bluetooth_timing_claims(report)
        assert claims  # the detection stage still makes them ...
        assert "bluetooth" in _all_forwarded(monitor, report, ping_trace.buffer)
        assert "bluetooth" not in report.ranges  # ... dispatch forwards none
        assert report.overruled == claims
        assert not report.packets_for("bluetooth")

    def test_wifi_ranges_and_packets_are_untouched(self, ping_trace):
        monitor = RFDumpMonitor()
        report = monitor.process(ping_trace.buffer)
        assert report.ranges["wifi"] == _all_forwarded(
            monitor, report, ping_trace.buffer)["wifi"]
        truth = ping_trace.ground_truth.observable("wifi")
        assert len(report.packets_for("wifi")) == len(truth)

    def test_classifications_are_the_detection_stage_truth(self, ping_trace):
        monitor = RFDumpMonitor()
        report = monitor.process(ping_trace.buffer)
        assert report.classifications == monitor.detect(ping_trace.buffer)[1]
        assert all(c in report.classifications for c in report.overruled)

    def test_overruled_claims_and_decoded_ranges_are_counted(self, mix_trace):
        obs = Observability()
        report = RFDumpMonitor(obs=obs).process(mix_trace.buffer)
        reg = obs.registry
        assert report.overruled
        assert reg.value("rfdump_classifications_overruled_total",
                         protocol="bluetooth") == len(report.overruled)
        for protocol, ranges in report.ranges.items():
            dispatched = reg.value("rfdump_ranges_dispatched_total",
                                   protocol=protocol)
            decoded = reg.value("rfdump_ranges_decoded_total",
                                protocol=protocol)
            assert dispatched == len(ranges)
            assert decoded == report.ranges_decoded(protocol) > 0
        # l2ping at 20 dB: every Bluetooth range left decodes
        assert report.ranges_decoded("bluetooth") == len(report.ranges["bluetooth"])


class TestFusedPeak:
    def test_bluetooth_packet_behind_an_ack_stays_forwarded(self, fused_trace):
        monitor = RFDumpMonitor()
        report = monitor.process(fused_trace.buffer)
        fused = [c.peak for c in report.classifications
                 if c.detector == DbpskPhaseDetector().name
                 and c.peak.length > 15_000]
        assert len(fused) == 1
        assert [r.peak_indices for r in report.ranges["bluetooth"]] == [
            [fused[0].index]]
        assert [(p.start_sample, p.end_sample, p.payload_size, p.channel)
                for p in report.packets_for("bluetooth")] == [
            (183_998, 200_750, 242, 36)]  # what the parent decoded

    def test_a_head_only_rule_would_lose_it(self, fused_trace, monkeypatch):
        monkeypatch.setattr(DbpskPhaseDetector, "tail_matches",
                            lambda self, peak, buffer: True)
        report = RFDumpMonitor().process(fused_trace.buffer)
        assert "bluetooth" not in report.ranges
        assert not report.packets_for("bluetooth")

    def test_the_tail_is_the_last_max_samples(self, ping_trace):
        detector = DbpskPhaseDetector()
        n = detector.max_samples
        silence = SampleBuffer.from_array(np.zeros(4 * n, np.complex64),
                                          ping_trace.sample_rate)
        # no longer than the head score reads: covered by it, unread
        assert detector.tail_matches(Peak(0, n, 1.0, 1.0), silence)
        # one sample longer: the tail is re-scored, and silence fails
        assert not detector.tail_matches(Peak(0, n + 1, 1.0, 1.0), silence)
        # a 1 Mbps data frame carries Barker chipping to its last sample
        report = RFDumpMonitor().process(ping_trace.buffer)
        frames = [c.peak for c in report.classifications
                  if c.detector == detector.name and c.peak.length > 30_000]
        assert frames
        assert all(detector.tail_matches(p, ping_trace.buffer) for p in frames)


class TestUncontested:
    def test_a_gfsk_claim_keeps_the_bluetooth_range(self, ping_trace):
        # a GFSK detector permissive enough to call every peak Bluetooth
        detectors = [*default_detectors(("wifi", "bluetooth"),
                                        ("timing", "phase")),
                     GfskPhaseDetector(threshold_rad=10.0)]
        monitor = RFDumpMonitor(detectors=detectors)
        report = monitor.process(ping_trace.buffer)
        assert _bluetooth_timing_claims(report)
        assert report.overruled == []
        assert report.ranges == _all_forwarded(monitor, report, ping_trace.buffer)
        assert report.ranges["bluetooth"]

    @pytest.mark.parametrize("config", [
        {"kinds": ("timing",)},
        {"kinds": ("phase",)},
        {"detectors": [WifiSifsTimingDetector(), WifiDifsTimingDetector(),
                       BluetoothTimingDetector(), GfskPhaseDetector()]},
    ], ids=["timing", "phase", "no-dbpsk"])
    def test_without_both_claims_the_parent_ranges_stand(self, mix_trace,
                                                         config):
        default = RFDumpMonitor().process(mix_trace.buffer)
        assert default.overruled  # the rule has work on this trace
        monitor = RFDumpMonitor(**config)
        report = monitor.process(mix_trace.buffer)
        assert report.overruled == []
        assert report.ranges == _all_forwarded(monitor, report, mix_trace.buffer)
