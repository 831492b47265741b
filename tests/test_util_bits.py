"""Tests for repro.util.bits: packing, CRCs, scramblers, whitening."""

import numpy as np
import pytest

from repro.util.bits import (
    BluetoothWhitener,
    Scrambler80211,
    bits_to_bytes,
    bt_crc,
    bt_hec,
    bytes_to_bits,
    crc16_ccitt,
    crc32_802,
    descramble_stream,
    pack_uint,
    unpack_uint,
)


class TestPacking:
    def test_bytes_to_bits_lsb_first(self):
        bits = bytes_to_bits(b"\x01")
        assert list(bits) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_bits_bytes_round_trip(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_bits_to_bytes_rejects_partial(self):
        with pytest.raises(ValueError):
            bits_to_bytes(np.ones(7, dtype=np.uint8))

    def test_pack_unpack_round_trip(self):
        for value, nbits in [(0, 1), (1, 1), (0xA5, 8), (0xFFFF, 16), (12345, 14)]:
            assert unpack_uint(pack_uint(value, nbits)) == value

    def test_pack_uint_rejects_overflow(self):
        with pytest.raises(ValueError):
            pack_uint(256, 8)

    def test_pack_uint_rejects_negative(self):
        with pytest.raises(ValueError):
            pack_uint(-1, 8)


def _crc32_by_table(data: bytes) -> int:
    """The reflected 0x04C11DB7 CRC a byte at a time, as ``crc32_802``
    was written before it became ``zlib.crc32``."""
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        table.append(crc)
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


class TestCrc32:
    def test_matches_the_table_loop(self):
        from repro.phy.wifi_mac import build_data_frame, parse_mac_frame

        rng = np.random.default_rng(0)
        mpdu = build_data_frame(1, 2, rng.bytes(200))
        for data in (b"", b"\x00", b"\xff", bytes(1500), rng.bytes(1500),
                     rng.bytes(37), mpdu[:-4]):
            assert crc32_802(data) == _crc32_by_table(data)
            assert crc32_802(bytearray(data)) == _crc32_by_table(data)
        frame = parse_mac_frame(mpdu)
        assert frame.fcs_ok
        assert int.from_bytes(mpdu[-4:], "little") == _crc32_by_table(mpdu[:-4])

    def test_known_vector(self):
        # the classic CRC-32 check value
        assert crc32_802(b"123456789") == 0xCBF43926

    def test_matches_zlib(self):
        import zlib

        for data in (b"", b"\x00", b"hello world", bytes(range(100))):
            assert crc32_802(data) == zlib.crc32(data)

    def test_detects_single_bit_flip(self):
        data = bytearray(b"some frame body")
        good = crc32_802(bytes(data))
        data[3] ^= 0x10
        assert crc32_802(bytes(data)) != good


class TestCrc16:
    def test_deterministic(self):
        bits = bytes_to_bits(b"\xaa\x55")
        assert crc16_ccitt(bits) == crc16_ccitt(bits)

    def test_complement_differs(self):
        bits = bytes_to_bits(b"\xaa\x55")
        plain = crc16_ccitt(bits, complement=False)
        comp = crc16_ccitt(bits, complement=True)
        assert plain ^ comp == 0xFFFF

    def test_sensitive_to_every_bit(self):
        bits = bytes_to_bits(b"\x12\x34\x56")
        reference = crc16_ccitt(bits)
        for i in range(bits.size):
            flipped = bits.copy()
            flipped[i] ^= 1
            assert crc16_ccitt(flipped) != reference


class TestBluetoothChecks:
    def test_hec_is_8_bit(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint8)
        assert 0 <= bt_hec(bits) <= 0xFF

    def test_hec_depends_on_uap(self):
        bits = np.ones(10, dtype=np.uint8)
        assert bt_hec(bits, uap=0x00) != bt_hec(bits, uap=0x47)

    def test_crc_depends_on_uap(self):
        bits = bytes_to_bits(b"payload")
        assert bt_crc(bits, uap=0) != bt_crc(bits, uap=0x47)

    def test_crc_detects_corruption(self):
        bits = bytes_to_bits(b"payload data here")
        good = bt_crc(bits)
        bits[5] ^= 1
        assert bt_crc(bits) != good


class TestScrambler:
    def test_round_trip(self):
        data = bytes_to_bits(b"the quick brown fox")
        tx = Scrambler80211().scramble(data)
        rx = Scrambler80211().descramble(tx)
        assert np.array_equal(rx, data)

    def test_scrambled_differs_from_plain(self):
        data = np.ones(64, dtype=np.uint8)
        assert not np.array_equal(Scrambler80211().scramble(data), data)

    def test_descrambler_self_synchronizes(self):
        # start the receive descrambler with the WRONG state: after 7 bits
        # the output matches anyway
        data = np.ones(64, dtype=np.uint8)
        tx = Scrambler80211().scramble(data)
        rx = Scrambler80211(seed=0).descramble(tx)
        assert np.array_equal(rx[7:], data[7:])

    def test_vectorized_descramble_matches_stateful(self):
        data = bytes_to_bits(b"vectorization check payload")
        tx = Scrambler80211().scramble(data)
        slow = Scrambler80211(seed=0).descramble(tx)
        fast = descramble_stream(tx)
        assert np.array_equal(slow[7:], fast[7:])

    def test_scramble_breaks_long_runs(self):
        # the whole point: SYNC ones become a balanced-ish sequence
        tx = Scrambler80211().scramble(np.ones(128, dtype=np.uint8))
        ones = int(tx.sum())
        assert 32 < ones < 96


class TestWhitener:
    def test_round_trip(self):
        data = bytes_to_bits(b"bluetooth payload")
        tx = BluetoothWhitener(clock=17).process(data)
        rx = BluetoothWhitener(clock=17).process(tx)
        assert np.array_equal(rx, data)

    def test_wrong_clock_fails(self):
        data = bytes_to_bits(b"bluetooth payload")
        tx = BluetoothWhitener(clock=17).process(data)
        rx = BluetoothWhitener(clock=18).process(tx)
        assert not np.array_equal(rx, data)

    def test_distinct_seeds_distinct_sequences(self):
        zero = np.zeros(64, dtype=np.uint8)
        seqs = {BluetoothWhitener(c).process(zero).tobytes() for c in range(64)}
        assert len(seqs) == 64

    def test_stream_continues_across_calls(self):
        data = bytes_to_bits(b"0123456789abcdef")
        one_shot = BluetoothWhitener(5).process(data)
        w = BluetoothWhitener(5)
        two_part = np.concatenate([w.process(data[:40]), w.process(data[40:])])
        assert np.array_equal(one_shot, two_part)
