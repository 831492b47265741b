"""Tests for repro.phy.plcp."""

import numpy as np
import pytest

from repro.errors import ChecksumError, DecodeError
from repro.phy import plcp
from repro.util.bits import Scrambler80211, descramble_stream


class TestHeader:
    def test_round_trip_all_rates(self):
        for rate in (1.0, 2.0, 5.5, 11.0):
            bits = plcp.header_bits(rate, 100)
            header = plcp.parse_header(bits)
            assert header.rate_mbps == rate
            assert header.mpdu_bytes == 100

    def test_length_us_for_1mbps(self):
        bits = plcp.header_bits(1.0, 125)
        assert plcp.parse_header(bits).length_us == 1000

    def test_crc_detects_corruption(self):
        bits = plcp.header_bits(1.0, 100)
        bits[5] ^= 1
        with pytest.raises(ChecksumError):
            plcp.parse_header(bits)

    def test_rejects_wrong_size(self):
        with pytest.raises(DecodeError):
            plcp.parse_header(np.zeros(47, dtype=np.uint8))

    def test_rejects_unknown_rate(self):
        with pytest.raises(ValueError):
            plcp.header_bits(3.0, 100)

    def test_service_field(self):
        bits = plcp.header_bits(2.0, 64, service=0x42)
        assert plcp.parse_header(bits).service == 0x42


class TestFrameBits:
    def test_head_length(self):
        head, payload = plcp.build_frame_bits(b"\x00" * 10, 1.0)
        assert head.size == 128 + 16 + 48
        assert payload.size == 80

    def test_payload_scrambled(self):
        head, payload = plcp.build_frame_bits(b"\x00" * 10, 1.0)
        assert payload.any()  # zeros scramble to non-zeros

    def test_descramble_recovers_sync_ones(self):
        head, _ = plcp.build_frame_bits(b"", 1.0)
        plain = descramble_stream(head)
        assert plain[7:128].all()


class TestFindSfd:
    def _stream(self, lead_garbage=0):
        head, _ = plcp.build_frame_bits(b"\x11\x22", 1.0)
        plain = descramble_stream(head)
        if lead_garbage:
            rng = np.random.default_rng(0)
            noise = rng.integers(0, 2, lead_garbage).astype(np.uint8)
            # keep noise from ending in 8 ones followed by the SFD by chance
            noise[-1] = 0
            plain = np.concatenate([noise, plain[7:]])
        return plain

    def test_finds_sfd(self):
        plain = self._stream()
        at = plcp.find_sfd(plain)
        assert at == 144

    def test_finds_with_leading_garbage(self):
        plain = self._stream(lead_garbage=50)
        at = plcp.find_sfd(plain)
        assert at > 0
        header = plcp.parse_header(plain[at : at + 48])
        assert header.mpdu_bytes == 2

    def test_absent_sfd(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 500).astype(np.uint8)
        bits[:16] = 0  # ensure no accidental leading match context
        assert plcp.find_sfd(np.zeros(300, dtype=np.uint8)) == -1

    def test_search_limit(self):
        plain = self._stream()
        assert plcp.find_sfd(plain, search_limit=100) == -1

    def test_too_short(self):
        assert plcp.find_sfd(np.ones(10, dtype=np.uint8)) == -1


def _gather_find(bits, pattern, sync_bit, search_limit=None):
    """The per-call index-gather search ``find_sfd``/``find_short_sfd`` used
    before they shared a matcher (the oracle for the tests below)."""
    bits = np.asarray(bits, dtype=np.uint8)
    limit = bits.size if search_limit is None else min(search_limit, bits.size)
    plen = pattern.size
    if limit < plen:
        return -1
    idx = np.arange(limit - plen + 1)[:, None] + np.arange(plen)[None, :]
    hits = np.flatnonzero((bits[idx] == pattern[None, :]).all(axis=1))
    for start in hits:
        lead = bits[max(start - 8, 0) : start]
        if lead.size == 0 or (lead.all() if sync_bit else not lead.any()):
            return int(start) + plen
    return -1


def _restart_loop(bits, pattern, sync_bit):
    """Search, record, resume one bit past the SFD on ``bits[pos:]``."""
    ends, pos = [], 0
    while pos < bits.size:
        end = _gather_find(bits[pos:], pattern, sync_bit)
        if end < 0:
            break
        ends.append(end + pos)
        pos = end + pos + 1
    return ends


class TestOnePassSfdSearch:
    PATTERNS = ((plcp.SFD_BITS, 1, False), (plcp.SHORT_SFD_BITS, 0, True))

    def _planted(self, seed):
        """Random bits with long and short SFDs planted behind their SYNC
        polarity, behind garbage, and back to back."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 3000).astype(np.uint8)
        for pattern, sync_bit, _ in self.PATTERNS:
            for _ in range(4):
                at = int(rng.integers(20, bits.size - 60))
                bits[at - int(rng.integers(0, 12)) : at] = sync_bit
                bits[at : at + 16] = pattern
            # an occurrence right after a previous SFD's end + 1: accepted
            # on an empty lead; and one 3 bits later: a 3-bit lead
            at = int(rng.integers(100, bits.size - 100))
            bits[at - 8 : at] = sync_bit
            bits[at : at + 16] = pattern
            bits[at + 17 : at + 33] = pattern
            at = int(rng.integers(100, bits.size - 100))
            bits[at - 8 : at] = sync_bit
            bits[at : at + 16] = pattern
            bits[at + 17 : at + 20] = sync_bit
            bits[at + 20 : at + 36] = pattern
        return bits

    def test_matches_restart_loop(self):
        found = 0
        for seed in range(12):
            bits = self._planted(seed)
            for pattern, sync_bit, short in self.PATTERNS:
                ends = plcp.find_all_sfds(bits, short=short)
                assert ends == _restart_loop(bits, pattern, sync_bit)
                found += len(ends)
        assert found >= 48  # later plants may overwrite earlier ones

    def test_occurrence_on_the_resume_position_needs_no_lead(self):
        bits = np.zeros(80, dtype=np.uint8)
        bits[2:10] = 1
        bits[10:26] = plcp.SFD_BITS
        bits[27:43] = plcp.SFD_BITS   # bit 26 is 0: no SYNC ones before it
        bits[46:62] = plcp.SFD_BITS   # lead is bits 44..45 (zeros): rejected
        assert plcp.find_all_sfds(bits) == [26, 43]
        assert _restart_loop(bits, plcp.SFD_BITS, 1) == [26, 43]

    @pytest.mark.parametrize("seed", range(6))
    def test_single_hit_functions_match_gather_search(self, seed):
        bits = self._planted(seed)
        for limit in (None, 0, 15, 16, 500, 1500, 10_000):
            assert plcp.find_sfd(bits, limit) == _gather_find(
                bits, plcp.SFD_BITS, 1, limit)
            assert plcp.find_short_sfd(bits, limit) == _gather_find(
                bits, plcp.SHORT_SFD_BITS, 0, limit)

    def test_search_limit_cuts_a_straddling_pattern(self):
        head, _ = plcp.build_frame_bits(b"\x11\x22", 1.0)
        plain = descramble_stream(head)
        assert plcp.find_sfd(plain, search_limit=144) == 144
        assert plcp.find_sfd(plain, search_limit=143) == -1

    def test_empty_and_short_streams(self):
        for n in (0, 1, 15):
            assert plcp.find_all_sfds(np.ones(n, dtype=np.uint8)) == []
            assert plcp.find_all_sfds(np.zeros(n, dtype=np.uint8), short=True) == []
