"""Coverage for secondary paths: dict gates, naive with extra protocols,
scanning with demodulation, report rendering details."""

import numpy as np
import pytest

from repro import NaiveMonitor, RFDumpMonitor, Scenario
from repro.analysis.report import render_packet_log
from repro.core.detectors.base import Classification
from repro.core.dispatcher import Dispatcher
from repro.core.metadata import Peak
from repro.emulator.traffic import OfdmBurstSource, ZigbeePingSession


def _cls(protocol, confidence, index=0):
    return Classification(
        Peak(250, 1150, 1.0, 1.0, index=index), protocol, "t", confidence
    )


class TestPerProtocolGate:
    def test_dict_gates_only_named_protocol(self):
        dispatcher = Dispatcher(min_confidence={"bluetooth": 0.9})
        ranges = dispatcher.dispatch(
            [_cls("bluetooth", 0.5), _cls("wifi", 0.5, index=1)], 10_000
        )
        assert "bluetooth" not in ranges
        assert "wifi" in ranges

    def test_dict_validation(self):
        with pytest.raises(ValueError):
            Dispatcher(min_confidence={"wifi": 2.0})

    def test_monitor_accepts_gated_dispatcher(self, wifi_trace):
        monitor = RFDumpMonitor(protocols=("wifi",), demodulate=False)
        monitor.dispatcher = Dispatcher(min_confidence={"wifi": 0.99})
        report = monitor.process(wifi_trace.buffer)
        ungated = RFDumpMonitor(protocols=("wifi",), demodulate=False).process(
            wifi_trace.buffer
        )
        assert report.forwarded_samples("wifi") <= ungated.forwarded_samples("wifi")


class TestNaiveExtraProtocols:
    def test_naive_zigbee(self):
        scenario = Scenario(duration=0.04, seed=51)
        scenario.add(ZigbeePingSession(n_packets=2, snr_db=20.0, interval=15e-3))
        trace = scenario.render()
        report = NaiveMonitor(protocols=("zigbee",)).process(trace.buffer)
        truth = trace.ground_truth.observable("zigbee")
        assert len(report.packets_for("zigbee")) == len(truth)

    def test_rfdump_ofdm_with_naive_comparison(self):
        scenario = Scenario(duration=0.05, seed=52)
        scenario.add(OfdmBurstSource(n_packets=4, snr_db=20.0, interval=11e-3))
        trace = scenario.render()
        rfdump = RFDumpMonitor(protocols=("ofdm",), kinds=("phase",)).process(
            trace.buffer
        )
        truth = trace.ground_truth.observable("ofdm")
        assert len(rfdump.packets_for("ofdm")) == len(truth)
        # RFDump demodulated far fewer samples than the trace holds
        assert rfdump.clock.samples_touched["demodulation"] < 0.6 * len(
            trace.samples
        )


class TestReportRendering:
    def test_snr_column_rendered(self, wifi_report, wifi_trace):
        log = render_packet_log(wifi_report.packets, wifi_trace.sample_rate)
        assert " dB" in log

    def test_ofdm_rows_render(self):
        from repro.analysis.decoders import PacketRecord
        from repro.phy.ofdm import OfdmPacket

        rec = PacketRecord(
            "ofdm", 800, 4000, True, "OfdmStreamDecoder", payload_size=100,
            decoded=OfdmPacket(payload=b"x" * 100),
        )
        log = render_packet_log([rec], 8e6)
        assert "ofdm" in log

    def test_short_preamble_info_in_records(self):
        from repro import WifiPingSession
        from repro.analysis.decoders import WifiStreamDecoder
        from repro.phy.wifi import WifiModulator
        from repro.phy.wifi_mac import build_data_frame
        from repro.dsp.samples import SampleBuffer
        from repro.util.timebase import Timebase

        mod = WifiModulator(8e6)
        wave = mod.modulate(build_data_frame(1, 2, b"s" * 40), 2.0,
                            preamble="short")
        rng = np.random.default_rng(4)
        rx = 0.05 * (rng.normal(size=wave.size + 800)
                     + 1j * rng.normal(size=wave.size + 800))
        rx[400:400 + wave.size] += wave
        buf = SampleBuffer(rx.astype(np.complex64), Timebase(8e6))
        records = WifiStreamDecoder(8e6).scan(buf)
        assert len(records) == 1
        assert records[0].info["preamble"] == "short"
