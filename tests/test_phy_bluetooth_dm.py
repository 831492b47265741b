"""Tests for Bluetooth DM packets (rate-2/3 FEC payloads)."""

import numpy as np
import pytest

from repro.phy.bluetooth import (
    BluetoothDemodulator,
    BluetoothModulator,
    TYPE_DH1,
    TYPE_DH3,
    TYPE_DH5,
    TYPE_DM1,
    TYPE_DM3,
    TYPE_DM5,
)


@pytest.fixture(scope="module")
def modem():
    return BluetoothModulator(8e6), BluetoothDemodulator(8e6)


def _embed(wave, lead=400, tail=200, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    n = wave.size + lead + tail
    rx = noise * (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
    rx[lead : lead + wave.size] += wave
    return rx


class TestDmPackets:
    @pytest.mark.parametrize(
        "ptype,size", [(TYPE_DM1, 17), (TYPE_DM3, 120), (TYPE_DM5, 224)]
    )
    def test_round_trip(self, modem, ptype, size):
        mod, dem = modem
        data = bytes((i * 11) & 0xFF for i in range(size))
        rx = _embed(mod.modulate(ptype, data, clock=13, seqn=1), seed=size)
        packet = dem.demodulate(rx)
        assert packet.ptype == ptype
        assert packet.payload == data
        assert packet.crc_ok
        assert packet.slots == {TYPE_DM1: 1, TYPE_DM3: 3, TYPE_DM5: 5}[ptype]

    def test_fec_overhead_in_airtime(self, modem):
        mod, _ = modem
        # same payload: DM costs 1.5x the payload bits of DH
        dh = mod.airtime(TYPE_DH1, 17)
        dm = mod.airtime(TYPE_DM1, 17)
        assert dm > dh
        payload_bits = 16 + 17 * 8 + 16
        expected = (72 + 54 + 15 * (-(-payload_bits // 10))) / 1e6
        assert dm == pytest.approx(expected)

    def test_rejects_oversized(self, modem):
        mod, _ = modem
        with pytest.raises(ValueError):
            mod.packet_bits(TYPE_DM1, bytes(18), clock=0)

    def test_corrects_scattered_bit_errors(self, modem):
        """The whole point of DM: one flipped bit per codeword heals."""
        mod, dem = modem
        data = bytes(range(100))
        bits = mod.packet_bits(TYPE_DM5, data, clock=5)
        corrupted = bits.copy()
        payload_start = 72 + 54
        # flip one bit in every third 15-bit codeword of the payload
        for cw in range(0, (corrupted.size - payload_start) // 15, 3):
            corrupted[payload_start + cw * 15 + 7] ^= 1
        wave = dem.modem.modulate(corrupted)
        packet = dem.demodulate(_embed(wave, seed=3))
        assert packet.payload == data

    def test_dh_unprotected_fails_same_errors(self, modem):
        """Contrast: the same error pattern kills an unprotected DH5."""
        from repro.errors import DecodeError

        mod, dem = modem
        data = bytes(range(100))
        bits = mod.packet_bits(TYPE_DH5, data, clock=5)
        corrupted = bits.copy()
        payload_start = 72 + 54
        for pos in range(0, corrupted.size - payload_start - 20, 45):
            corrupted[payload_start + pos + 7] ^= 1
        wave = dem.modem.modulate(corrupted)
        with pytest.raises(DecodeError):
            dem.demodulate(_embed(wave, seed=4))

    def test_dm_more_robust_than_dh_at_low_snr(self, modem):
        """DM's FEC buys decode margin at marginal SNR."""
        mod, dem = modem
        data = bytes(range(17))
        dm_ok = dh_ok = 0
        for seed in range(8):
            noise = 0.42  # marginal: occasional bit errors
            dm_rx = _embed(mod.modulate(TYPE_DM1, data, clock=seed),
                           noise=noise, seed=seed)
            dh_rx = _embed(mod.modulate(TYPE_DH1, data, clock=seed),
                           noise=noise, seed=seed + 100)
            dm_ok += dem.try_demodulate(dm_rx) is not None
            dh_ok += dem.try_demodulate(dh_rx) is not None
        assert dm_ok >= dh_ok


class TestRecordLength:
    """A decoded packet's record spans the transmission, whatever the FEC."""

    @pytest.mark.parametrize("ptype,size", [
        (TYPE_DH1, 27), (TYPE_DH3, 183), (TYPE_DH5, 200),
        (TYPE_DM1, 17), (TYPE_DM3, 121), (TYPE_DM5, 200),
    ])
    def test_record_spans_the_modulated_waveform(self, modem, ptype, size):
        from repro.analysis.decoders import BluetoothStreamDecoder
        from repro.dsp.samples import SampleBuffer

        mod, _ = modem
        wave = mod.modulate(ptype, bytes(size), clock=size & 0x3F)
        assert mod.airtime(ptype, size) == pytest.approx(wave.size / 8e6)
        buffer = SampleBuffer.from_array(_embed(wave, seed=size), 8e6,
                                         start_sample=10_000)
        decoder = BluetoothStreamDecoder(8e6, center_freq=2.441e9)
        (record,) = decoder.scan(buffer, channel_hint=39)
        assert record.payload_size == size
        assert record.end_sample - record.start_sample == wave.size
        assert abs(record.start_sample - 10_400) <= 4
