"""Tests for repro.phy.zigbee."""

import numpy as np
import pytest

from repro.errors import DecodeError
from repro.phy.zigbee import (
    ZigbeeDemodulator,
    ZigbeeModulator,
    build_frame,
    bytes_from_symbols,
    pn_table,
    symbols_from_bytes,
)


@pytest.fixture(scope="module")
def modem():
    return ZigbeeModulator(8e6), ZigbeeDemodulator(8e6)


def _embed(wave, lead=300, tail=200, noise=0.05, seed=0, phase=0.0):
    rng = np.random.default_rng(seed)
    n = wave.size + lead + tail
    rx = noise * (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
    rx[lead : lead + wave.size] += (wave * np.exp(1j * phase)).astype(np.complex64)
    return rx


class TestPnTable:
    def test_shape(self):
        assert pn_table().shape == (16, 32)

    def test_all_rows_distinct(self):
        table = pn_table()
        assert len({row.tobytes() for row in table}) == 16

    def test_near_orthogonal(self):
        table = 2.0 * pn_table().astype(np.float64) - 1.0
        gram = table @ table.T
        off_diag = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off_diag)) <= 8.0  # 802.15.4 cross-correlation bound

    def test_conjugate_structure(self):
        table = pn_table()
        assert np.array_equal(table[8][0::2], table[0][0::2])
        assert np.array_equal(table[8][1::2], table[0][1::2] ^ 1)


class TestSymbols:
    def test_round_trip(self):
        data = bytes(range(32))
        assert bytes_from_symbols(symbols_from_bytes(data)) == data

    def test_nibble_order(self):
        assert symbols_from_bytes(b"\xA7").tolist() == [0x7, 0xA]

    def test_rejects_odd_symbols(self):
        with pytest.raises(ValueError):
            bytes_from_symbols(np.array([1, 2, 3], dtype=np.uint8))


class TestFrame:
    def test_structure(self):
        frame = build_frame(b"hello")
        assert frame[:4] == bytes(4)
        assert frame[4] == 0xA7
        assert frame[5] == len(b"hello") + 2

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            build_frame(bytes(126))


class TestModem:
    def test_round_trip(self, modem):
        mod, dem = modem
        psdu = bytes(range(60))
        packet = dem.demodulate(_embed(mod.modulate(psdu)))
        assert packet.psdu == psdu
        assert packet.fcs_ok

    def test_phase_rotation_tolerated(self, modem):
        mod, dem = modem
        psdu = b"rotated frame body"
        packet = dem.demodulate(_embed(mod.modulate(psdu), phase=1.1, seed=2))
        assert packet.psdu == psdu

    def test_start_sample(self, modem):
        mod, dem = modem
        packet = dem.demodulate(_embed(mod.modulate(b"pos"), lead=777, seed=3))
        assert abs(packet.start_sample - 777) <= dem.sps

    def test_noise_only_raises(self, modem):
        _, dem = modem
        rng = np.random.default_rng(4)
        noise = (rng.normal(size=30000) + 1j * rng.normal(size=30000)).astype(
            np.complex64
        )
        with pytest.raises(DecodeError):
            dem.demodulate(noise)

    def test_preamble_search_correlates_only_what_it_reads(self, modem,
                                                           monkeypatch):
        """``_find_start`` looks at ten symbol periods of correlation; it
        used to convolve the whole candidate (36,000 samples) first."""
        mod, dem = modem
        rx = _embed(mod.modulate(bytes(100)), tail=30_000, seed=7)
        expected = dem._find_start(rx)
        sizes = []
        convolve = np.convolve

        def spy(a, v, mode="full"):
            sizes.append(len(a))
            return convolve(a, v, mode=mode)

        monkeypatch.setattr(np, "convolve", spy)
        assert dem._find_start(rx) == expected
        assert sizes and max(sizes) <= 11 * dem.sps < rx.size

    def test_corrupted_fcs_raises(self, modem):
        mod, dem = modem
        wave = mod.modulate(b"fcs target")
        # stomp on the end of the frame where the FCS symbols live
        wave[-3 * dem.sps :] = 0
        with pytest.raises(DecodeError):
            dem.demodulate(_embed(wave, seed=5))

    def test_airtime(self, modem):
        mod, _ = modem
        assert mod.airtime(10) == pytest.approx((6 + 12) * 2 / 62500)

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            ZigbeeModulator(3e6)

    def test_empty_psdu(self, modem):
        mod, dem = modem
        packet = dem.demodulate(_embed(mod.modulate(b""), seed=6))
        assert packet.psdu == b""
