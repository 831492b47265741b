"""Tests for repro.phy.fec."""

import numpy as np
import pytest

from repro.errors import DecodeError
from repro.phy.fec import (
    hamming1510_decode,
    hamming1510_encode,
    repeat3_decode,
    repeat3_encode,
)


class TestRepetition:
    def test_round_trip(self, rng):
        bits = rng.integers(0, 2, 60).astype(np.uint8)
        assert np.array_equal(repeat3_decode(repeat3_encode(bits)), bits)

    def test_rate(self):
        assert repeat3_encode(np.ones(10, dtype=np.uint8)).size == 30

    def test_corrects_one_error_per_triplet(self, rng):
        bits = rng.integers(0, 2, 18).astype(np.uint8)
        coded = repeat3_encode(bits)
        for triplet in range(bits.size):
            corrupted = coded.copy()
            corrupted[3 * triplet + int(rng.integers(0, 3))] ^= 1
            assert np.array_equal(repeat3_decode(corrupted), bits)

    def test_two_errors_in_triplet_fail(self):
        bits = np.zeros(3, dtype=np.uint8)
        coded = repeat3_encode(bits)
        coded[0] ^= 1
        coded[1] ^= 1
        assert repeat3_decode(coded)[0] == 1  # majority wins, wrongly

    def test_rejects_bad_length(self):
        with pytest.raises(DecodeError):
            repeat3_decode(np.zeros(4, dtype=np.uint8))


class TestHamming:
    def test_round_trip(self, rng):
        bits = rng.integers(0, 2, 50).astype(np.uint8)
        assert np.array_equal(hamming1510_decode(hamming1510_encode(bits)), bits)

    def test_rate(self):
        assert hamming1510_encode(np.zeros(20, dtype=np.uint8)).size == 30

    def test_systematic(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint8)
        coded = hamming1510_encode(bits)
        assert np.array_equal(coded[:10], bits)

    def test_corrects_any_single_error(self, rng):
        bits = rng.integers(0, 2, 10).astype(np.uint8)
        coded = hamming1510_encode(bits)
        for pos in range(15):
            corrupted = coded.copy()
            corrupted[pos] ^= 1
            assert np.array_equal(hamming1510_decode(corrupted), bits), pos

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            hamming1510_encode(np.zeros(7, dtype=np.uint8))
        with pytest.raises(DecodeError):
            hamming1510_decode(np.zeros(14, dtype=np.uint8))

    def test_all_syndromes_distinct(self):
        # single-error correction requires 15 distinct non-zero syndromes
        from repro.phy.fec import _poly_mod

        syndromes = {_poly_mod(1 << (14 - k), 15) for k in range(15)}
        assert len(syndromes) == 15
        assert 0 not in syndromes


# -- the table-driven codec against the per-codeword loops it replaced --------

def _poly_mod_loop(dividend, nbits):
    for shift in range(nbits - 1, 4, -1):
        if dividend & (1 << shift):
            dividend ^= 0b110101 << (shift - 5)
    return dividend & 0x1F


def _encode_loop(bits):
    out = []
    for i in range(0, bits.size, 10):
        info = int(sum(int(b) << (9 - j) for j, b in enumerate(bits[i : i + 10])))
        word = (info << 5) | _poly_mod_loop(info << 5, 15)
        out.append([(word >> (14 - k)) & 1 for k in range(15)])
    return np.array(out, dtype=np.uint8).ravel()


def _decode_loop(coded):
    syndromes = {_poly_mod_loop(1 << (14 - k), 15): k for k in range(15)}
    out = []
    for i in range(0, coded.size, 15):
        word = int(sum(int(b) << (14 - j) for j, b in enumerate(coded[i : i + 15])))
        syn = _poly_mod_loop(word, 15)
        if syn != 0:
            pos = syndromes.get(syn)
            if pos is None:
                raise DecodeError("uncorrectable rate-2/3 FEC block")
            word ^= 1 << (14 - pos)
        info = word >> 5
        out.append([(info >> (9 - k)) & 1 for k in range(10)])
    return np.array(out, dtype=np.uint8).ravel()


def _outcome(decode, coded):
    try:
        return decode(coded).tolist()
    except DecodeError as exc:
        return str(exc)


class TestHammingExhaustive:
    @pytest.fixture(scope="class")
    def words(self):
        """All 1024 info words as a (1024, 10) MSB-first bit matrix."""
        return ((np.arange(1024)[:, None] >> np.arange(9, -1, -1)) & 1).astype(np.uint8)

    def test_every_info_word_encodes_as_the_loop_did(self, words):
        assert np.array_equal(hamming1510_encode(words.ravel()),
                              _encode_loop(words.ravel()))

    def test_every_word_survives_every_single_bit_error(self, words):
        coded = hamming1510_encode(words.ravel()).reshape(-1, 15)
        assert np.array_equal(hamming1510_decode(coded.ravel()), words.ravel())
        for pos in range(15):
            corrupted = coded.copy()
            corrupted[:, pos] ^= 1
            assert np.array_equal(hamming1510_decode(corrupted.ravel()),
                                  words.ravel()), pos

    @pytest.mark.parametrize("info", [0, 1, 0x155, 0x2AA, 700, 1023])
    def test_double_bit_errors_do_what_the_loop_did(self, words, info):
        # g(D) = (D + 1)(D^4 + D + 1) gives distance 4: no double error
        # aliases a single-bit syndrome, both decoders refuse them all
        codeword = hamming1510_encode(words[info])
        for i in range(15):
            for j in range(i + 1, 15):
                corrupted = codeword.copy()
                corrupted[[i, j]] ^= 1
                got = _outcome(hamming1510_decode, corrupted)
                assert got == _outcome(_decode_loop, corrupted), (i, j)
                assert got == "uncorrectable rate-2/3 FEC block"

    def test_one_bad_block_fails_the_stream(self, words):
        bad = hamming1510_encode(words[:40].ravel())
        bad[[15 * 17 + 2, 15 * 17 + 11]] ^= 1
        with pytest.raises(DecodeError, match="uncorrectable"):
            hamming1510_decode(bad)
        with pytest.raises(DecodeError, match="uncorrectable"):
            _decode_loop(bad)

    def test_empty_stream(self):
        empty = np.zeros(0, dtype=np.uint8)
        assert hamming1510_encode(empty).size == 0
        assert hamming1510_decode(empty).size == 0
