"""Tests for repro.analysis.decoders (stream decoders)."""

import numpy as np
import pytest

from repro.analysis.decoders import (
    BluetoothStreamDecoder,
    WifiStreamDecoder,
    ZigbeeStreamDecoder,
    _dedup_records,
    PacketRecord,
)
from repro.dsp.samples import SampleBuffer
from repro.emulator import Scenario, ZigbeePingSession
from repro.phy.wifi import WifiModulator
from repro.phy.wifi_mac import build_data_frame
from repro.util.timebase import Timebase

FS = 8e6


class TestDedup:
    def _rec(self, start, ok=True):
        return PacketRecord("wifi", start, start + 100, ok, "d")

    def test_collapses_near_starts(self):
        records = [self._rec(100), self._rec(120), self._rec(5000)]
        out = _dedup_records(records, min_spacing=200)
        assert [r.start_sample for r in out] == [100, 5000]

    def test_prefers_ok_record(self):
        records = [self._rec(100, ok=False), self._rec(120, ok=True)]
        out = _dedup_records(records, min_spacing=200)
        assert out[0].ok

    def test_unsorted_input(self):
        records = [self._rec(5000), self._rec(100)]
        out = _dedup_records(records, min_spacing=200)
        assert [r.start_sample for r in out] == [100, 5000]


class TestWifiStream:
    def test_finds_all_packets(self, wifi_trace):
        decoder = WifiStreamDecoder(FS)
        records = decoder.scan(wifi_trace.buffer)
        truth = wifi_trace.ground_truth.observable("wifi")
        assert len(records) == len(truth)

    def test_positions_match_truth(self, wifi_trace):
        decoder = WifiStreamDecoder(FS)
        records = sorted(decoder.scan(wifi_trace.buffer),
                         key=lambda r: r.start_sample)
        truth = sorted(wifi_trace.ground_truth.observable("wifi"),
                       key=lambda t: t.start_time)
        for rec, tx in zip(records, truth):
            assert abs(rec.start_sample / FS - tx.start_time) < 100e-6

    def test_payload_decodes(self, wifi_trace):
        decoder = WifiStreamDecoder(FS)
        records = decoder.scan(wifi_trace.buffer)
        data = [r for r in records if r.decoded.mac and r.decoded.mac.is_data]
        assert data
        assert all(r.info["fcs_ok"] for r in data)

    def test_empty_buffer(self):
        buf = SampleBuffer(np.zeros(1000, dtype=np.complex64), Timebase(FS))
        assert WifiStreamDecoder(FS).scan(buf) == []

    def test_noise_only(self, rng):
        noise = (rng.normal(size=100000) + 1j * rng.normal(size=100000))
        buf = SampleBuffer(noise.astype(np.complex64), Timebase(FS))
        assert WifiStreamDecoder(FS).scan(buf) == []

    def test_subrange_scan(self, wifi_trace):
        truth = wifi_trace.ground_truth.observable("wifi")[0]
        lo = int(truth.start_time * FS) - 400
        hi = int(truth.end_time * FS) + 400
        sub = wifi_trace.buffer.slice(lo, hi)
        records = WifiStreamDecoder(FS).scan(sub)
        assert len(records) == 1
        assert abs(records[0].start_sample - lo - 400) < 200

    @pytest.mark.parametrize("rate_mbps, nbytes", [
        (1.0, 700), (1.0, 1500), (1.0, 2300), (1.0, 2346), (2.0, 1500), (2.0, 2300)])
    def test_frames_longer_than_5_ms_decode(self, rate_mbps, nbytes):
        # a candidate's slice once ended 5 ms after its start, which cut
        # these payloads short and left no record at all; 2,346 bytes at
        # 1 Mbps is the longest 802.11b frame
        mpdu = build_data_frame(1, 2, (bytes(range(256)) * 10)[:nbytes - 28])
        wave = WifiModulator(FS).modulate(mpdu, rate_mbps)
        assert wave.size > 5e-3 * FS
        rx = np.zeros(wave.size + 1_000, dtype=np.complex64)
        rx[400:400 + wave.size] = wave
        for impl in ("vectorized", "reference"):
            records = WifiStreamDecoder(FS, impl=impl).scan(
                SampleBuffer.from_array(rx, FS))
            assert [(r.payload_size, r.info["fcs_ok"]) for r in records] \
                == [(nbytes, True)]
            assert records[0].end_sample - records[0].start_sample \
                == pytest.approx(wave.size, abs=16)


class TestBluetoothStream:
    def test_finds_observable_packets(self, bluetooth_trace):
        decoder = BluetoothStreamDecoder(FS, bluetooth_trace.center_freq)
        records = decoder.scan(bluetooth_trace.buffer)
        truth = bluetooth_trace.ground_truth.observable("bluetooth")
        found_channels = {r.channel for r in records}
        truth_channels = {t.channel for t in truth}
        assert len(records) >= len(truth) - 1
        assert found_channels <= truth_channels

    def test_payload_size_identifies_sequence(self, bluetooth_trace):
        # the paper's ground-truth trick: size encodes the sequence number
        decoder = BluetoothStreamDecoder(FS, bluetooth_trace.center_freq)
        records = decoder.scan(bluetooth_trace.buffer)
        truth = {
            (round(t.start_time * FS), t.meta["size"])
            for t in bluetooth_trace.ground_truth.observable("bluetooth")
        }
        for rec in records:
            sizes = [s for (start, s) in truth if abs(start - rec.start_sample) < 400]
            assert sizes and sizes[0] == rec.payload_size

    def test_channel_hint_restricts_scan(self, bluetooth_trace):
        decoder = BluetoothStreamDecoder(FS, bluetooth_trace.center_freq)
        truth = bluetooth_trace.ground_truth.observable("bluetooth")[0]
        lo = int(truth.start_time * FS) - 800
        hi = lo + int(3e-3 * FS) + 1600
        sub = bluetooth_trace.buffer.slice(lo, hi)
        with_hint = decoder.scan(sub, channel_hint=truth.channel)
        assert len(with_hint) == 1
        wrong_hint = decoder.scan(
            sub, channel_hint=(truth.channel - 2) if truth.channel >= 38 else truth.channel + 2
        )
        assert wrong_hint == []

    def test_in_band_channel_count(self):
        decoder = BluetoothStreamDecoder(FS, 2.4415e9)
        assert len(decoder.channels) == 8


class TestZigbeeStream:
    def test_finds_frames(self):
        scenario = Scenario(duration=0.05, seed=12)
        scenario.add(ZigbeePingSession(n_packets=3, snr_db=20.0))
        trace = scenario.render()
        records = ZigbeeStreamDecoder(FS).scan(trace.buffer)
        truth = trace.ground_truth.observable("zigbee")
        assert len(records) == len(truth)

    def test_noise_only(self, rng):
        noise = (rng.normal(size=100000) + 1j * rng.normal(size=100000))
        buf = SampleBuffer(noise.astype(np.complex64), Timebase(FS))
        assert ZigbeeStreamDecoder(FS).scan(buf) == []
