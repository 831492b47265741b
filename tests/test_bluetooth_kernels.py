"""The Bluetooth receive path's kernels against straightforward oracles.

Whitening, CRC/HEC and the sync-word correlation are exact: the oracles
here are the bit-serial loops and the per-alignment ``np.correlate``
they replaced, and every comparison is ``==``.
"""

import numpy as np
import pytest

from repro.phy.bluetooth import (
    BluetoothDemodulator,
    BluetoothModulator,
    TYPE_DH1,
    header_info_bits,
    sync_word,
)
from repro.phy.gfsk import GfskModem, centre
from repro.util.bits import (
    _WHITENING_SEQUENCE,
    BluetoothWhitener,
    _crc_bits,
    _crc_table,
    bt_hec,
    unpack_uint,
)

FS = 8e6
SYNC = sync_word(0x9E8B33)


# -- oracles: the loops as they stood before the kernels ----------------------

def _whiten_bit_serial(clock, bits):
    state = ((clock & 0x3F) | 0x40) & 0x7F
    out = np.empty_like(bits)
    for i, bit in enumerate(bits):
        white = (state >> 6) & 1
        out[i] = int(bit) ^ white
        state = ((state << 1) & 0x7F) | white
        state ^= white << 4
    return out


def _crc_bit_serial(bits, poly, nbits, init):
    reg = init
    mask = (1 << nbits) - 1
    for bit in np.asarray(bits, dtype=np.uint8):
        fb = ((reg >> (nbits - 1)) & 1) ^ int(bit)
        reg = (reg << 1) & mask
        if fb:
            reg ^= poly & mask
    return reg & mask


def _crc_table_loop(bits, poly, nbits, init):
    """``_crc_bits`` before whole bytes went through ``binascii``."""
    mask = (1 << nbits) - 1
    reg = init & mask
    whole = bits.size - bits.size % 8
    table = _crc_table(poly & mask, nbits)
    for byte in np.packbits(bits[:whole]).tolist():
        reg = ((reg << 8) & mask) ^ table[(reg >> (nbits - 8)) ^ byte]
    return _crc_bit_serial(bits[whole:], poly, nbits, reg)


def _sequence_by_roll(phase, nbits):
    """``BluetoothWhitener.sequence`` before the tiled table."""
    return np.resize(np.roll(_WHITENING_SEQUENCE, -phase), nbits)


def _unpack_by_weights(bits):
    """``unpack_uint`` before ``np.packbits``."""
    bits = np.asarray(bits, dtype=np.uint64)
    weights = np.left_shift(np.uint64(1), np.arange(bits.size, dtype=np.uint64))
    return int(np.sum(bits * weights))


def _header_candidates_by_seed(whitened, uap):
    for clock in range(64):
        candidate = _whiten_bit_serial(clock, whitened)
        if bt_hec(candidate[:10], uap) == unpack_uint(candidate[10:18]):
            yield candidate, clock


# -- whitening ----------------------------------------------------------------

class TestWhitener:
    @pytest.mark.parametrize("length", [0, 1, 17, 18, 126, 127, 128, 2744, 5500])
    def test_every_seed_matches_the_lfsr(self, length):
        bits = np.random.default_rng(length).integers(0, 2, length).astype(np.uint8)
        for clock in range(64):
            assert np.array_equal(BluetoothWhitener(clock).process(bits),
                                  _whiten_bit_serial(clock, bits))

    def test_state_carries_across_calls(self):
        bits = np.random.default_rng(7).integers(0, 2, 3000).astype(np.uint8)
        for clock in range(64):
            whitener = BluetoothWhitener(clock)
            cuts = [0, 18, 18, 34, 161, 288, 289, 2900, 3000]
            parts = [whitener.process(bits[a:b]) for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts),
                                  _whiten_bit_serial(clock, bits))

    def test_sequence_is_process_of_zeros(self):
        for clock in (0, 21, 63):
            a, b = BluetoothWhitener(clock), BluetoothWhitener(clock)
            for n in (18, 0, 130, 5):
                assert np.array_equal(a.sequence(n),
                                      b.process(np.zeros(n, dtype=np.uint8)))

    def test_every_phase_and_length_equals_the_rolled_sequence(self):
        """Every phase of the m-sequence, every length up to a DH5
        payload after the header (and past the tiled table's end)."""
        longest = 18 + 2744
        whitener = BluetoothWhitener(0)
        for phase in range(127):
            want = _sequence_by_roll(phase, longest + 200).tobytes()
            for n in list(range(longest + 1)) + [longest + 150, longest + 200]:
                whitener._phase = phase
                assert whitener.sequence(n).tobytes() == want[:n]
                assert whitener._phase == (phase + n) % 127

    def test_sequence_is_read_only(self):
        with pytest.raises(ValueError):
            BluetoothWhitener(3).sequence(40)[0] ^= 1

    def test_clock_uses_six_bits(self):
        bits = np.zeros(40, dtype=np.uint8)
        assert np.array_equal(BluetoothWhitener(0x45).process(bits),
                              BluetoothWhitener(0x05).process(bits))


# -- CRC / HEC ----------------------------------------------------------------

class TestCrc:
    @pytest.mark.parametrize("poly,nbits", [(0x1021, 16), (0xA7, 8)])
    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 10, 18, 2728])
    def test_matches_the_bit_serial_register(self, poly, nbits, length):
        rng = np.random.default_rng(1000 * nbits + length)
        for init in [0, (1 << nbits) - 1] + rng.integers(0, 1 << nbits, 6).tolist():
            bits = rng.integers(0, 2, length).astype(np.uint8)
            assert (_crc_bits(bits, poly, nbits, init)
                    == _crc_bit_serial(bits, poly, nbits, init))

    @pytest.mark.parametrize("init", [0xFFFF, 0x0000, 0x4700])
    def test_ccitt_bytes_equal_the_table_loop(self, init):
        """The PLCP header's init and the Bluetooth payload's (UAP 0 and
        0x47): ``binascii.crc_hqx`` on whole bytes, the table loop's
        register, at every length from 0 to 4,096 bits."""
        rng = np.random.default_rng(init)
        for length in list(range(0, 130)) + rng.integers(0, 4097, 200).tolist() + [4096]:
            bits = rng.integers(0, 2, length).astype(np.uint8)
            assert (_crc_bits(bits, 0x1021, 16, init)
                    == _crc_table_loop(bits, 0x1021, 16, init))


class TestUnpackUint:
    def test_equals_the_weighted_sum(self):
        rng = np.random.default_rng(5)
        for length in range(0, 65):
            for _ in range(20):
                bits = rng.integers(0, 2, length).astype(np.uint8)
                assert unpack_uint(bits) == _unpack_by_weights(bits)
                assert unpack_uint(bits.astype(bool)) == _unpack_by_weights(bits)
                assert unpack_uint(bits.tolist()) == _unpack_by_weights(bits)


class TestHeaderCandidates:
    @pytest.mark.parametrize("uap", [0x00, 0x47])
    def test_same_headers_and_clocks_in_the_same_order(self, uap):
        demod = BluetoothDemodulator(FS, uap=uap)
        rng = np.random.default_rng(uap)
        passing = []
        for _ in range(300):
            whitened = rng.integers(0, 2, 18).astype(np.uint8)
            found = list(demod._header_candidates(whitened))
            expected = list(_header_candidates_by_seed(whitened, uap))
            assert [clock for _, clock in found] == [clock for _, clock in expected]
            for (header, _), (oracle, _) in zip(found, expected):
                assert np.array_equal(header, oracle)
            passing.append(len(found))
        # the 64 whitening streams have 64 distinct HEC syndromes, so a
        # received header passes for one seed at most
        assert set(passing) == {0, 1}

    def test_a_real_header_yields_its_own_clock(self):
        demod = BluetoothDemodulator(FS)
        header = header_info_bits(1, TYPE_DH1, 1, 0, 1)
        for clock in (0, 13, 63):
            whitened = BluetoothWhitener(clock).process(header)
            clocks = {c: h for h, c in demod._header_candidates(whitened)}
            assert np.array_equal(clocks[clock], header)


# -- sync-word correlation ----------------------------------------------------

def _correlation_by_alignment(modem, disc):
    """best_offset()'s np.correlate per alignment, laid out per sample."""
    pattern = 2.0 * SYNC.astype(np.float64) - 1.0
    out = {}
    for offset in range(modem.sps):
        soft = modem.soft_bits(None, offset, disc)
        if soft.size < pattern.size:
            continue
        corr = np.correlate(np.sign(soft), pattern, mode="valid")
        for pos, score in enumerate(corr):
            out[offset + pos * modem.sps] = score
    return out


def _assert_search_matches(modem, disc):
    disc = np.asarray(disc, dtype=np.float32)
    correlation = modem.sync_correlation(disc[None, :], SYNC)[0]
    expected = _correlation_by_alignment(modem, disc)
    assert correlation.size == len(expected)
    assert all(correlation[k] == score for k, score in expected.items())
    assert modem.best_match(correlation) == modem.best_offset(None, SYNC, disc)
    return correlation


def _noise(n, seed=0, level=0.3):
    return level * np.random.default_rng(seed).normal(size=n).astype(np.float32)


class TestSyncCorrelation:
    @pytest.fixture(scope="class")
    def modem(self):
        return GfskModem(FS)

    def test_noise(self, modem):
        correlation = _assert_search_matches(modem, _noise(20_000))
        assert correlation.max() < 50

    @pytest.mark.parametrize("n", [64 * 8, 64 * 8 + 1, 64 * 8 + 7, 1003, 4099])
    def test_lengths_off_the_symbol_grid(self, modem, n):
        _assert_search_matches(modem, _noise(n, seed=n))

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 64 * 8 - 1])
    def test_shorter_than_the_sync_word(self, modem, n):
        disc = _noise(n)
        assert modem.sync_correlation(disc[None, :], SYNC).shape == (1, 0)
        assert modem.best_match(np.zeros(0, dtype=np.int8)) == (0, -1, -np.inf)
        assert modem.best_offset(None, SYNC, disc) == (0, -1, -np.inf)

    def test_clean_packet(self, modem):
        wave = BluetoothModulator(FS).modulate(TYPE_DH1, b"kernel", clock=9)
        rx = np.concatenate([np.zeros(203, np.complex64), wave,
                             np.zeros(150, np.complex64)])
        rx += 0.01 * (np.random.default_rng(1).normal(size=rx.size)
                      + 1j * np.random.default_rng(2).normal(size=rx.size))
        disc = modem.discriminate_channels(rx)[0]
        correlation = _assert_search_matches(modem, disc)
        offset, pos, score = modem.best_match(correlation)
        assert score == 64.0
        assert abs(offset + pos * 8 - (203 + 4 * 8)) <= 4

    def test_tie_between_two_alignments_goes_to_the_first(self, modem):
        # a square wave of the sync bits: alignments 2..5 all read every
        # symbol's central half cleanly and tie at 64
        disc = np.concatenate([_noise(40, seed=3),
                               np.repeat(2.0 * SYNC - 1.0, 8).astype(np.float32),
                               _noise(40, seed=4)])
        correlation = _assert_search_matches(modem, disc)
        assert np.count_nonzero(correlation == 64) >= 2
        offset, pos, score = modem.best_match(correlation)
        starts = np.flatnonzero(correlation == 64)
        assert (offset, score) == (int((starts % 8).min()), 64.0)

    def test_all_zero_range_matches_nothing(self, modem):
        disc = modem.discriminate_channels(np.zeros(5000, dtype=np.complex64))
        assert not disc.any()
        correlation = _assert_search_matches(modem, disc[0])
        assert not correlation.any()

    def test_exact_zero_symbols_score_nothing(self, modem):
        disc = _noise(3000, seed=5)
        disc[700:1500] = 0.0
        _assert_search_matches(modem, disc)

    def test_rows_are_independent_and_tiles_invisible(self, modem, monkeypatch):
        from repro.phy import gfsk

        disc = np.stack([_noise(9001, seed=s) for s in range(3)])
        whole = modem.sync_correlation(disc, SYNC)
        for row in range(3):
            assert np.array_equal(whole[row],
                                  modem.sync_correlation(disc[row:row + 1], SYNC)[0])
        for tile in (1, 700, 3 * 8192):
            monkeypatch.setattr(gfsk, "_TILE", tile)
            assert np.array_equal(modem.sync_correlation(disc, SYNC), whole)

    @pytest.mark.parametrize("n", [0, 1, 64 * 8 - 1, 64 * 8, 9001])
    def test_centred_search_centres_each_tile_as_it_reads_it(self, modem, monkeypatch, n):
        from repro.phy import gfsk

        # an offset mean, as a channel's carrier offset leaves in the rows
        rows = np.stack([_noise(n, seed=s) + 0.05 * s for s in range(3)])
        before = rows.copy()
        expected = modem.sync_correlation(centre(rows.copy()), SYNC)
        for tile in (700, 3 * 8192, 65536):
            monkeypatch.setattr(gfsk, "_TILE", tile)
            assert np.array_equal(modem.centred_sync_correlation(rows, SYNC), expected)
        assert np.array_equal(rows, before)

    @pytest.mark.parametrize("fs", [2e6, 4e6])
    def test_other_symbol_lengths(self, fs):
        # (a mean over 8 samples or more, sps >= 16, is not summed in order)
        modem = GfskModem(fs)
        _assert_search_matches(modem, _noise(150 * modem.sps + 3, seed=int(fs)))

    def test_hard_bits_are_the_reference_decisions(self, modem):
        disc = _noise(8 * 300 + 5, seed=6)
        for offset in range(8):
            assert np.array_equal(modem.hard_bits(disc, offset),
                                  modem.demodulate(None, offset, disc))
        assert modem.hard_bits(disc[:3], 5).size == 0


# -- the single-precision front end -------------------------------------------

class TestDiscriminateChannels:
    @pytest.fixture(scope="class")
    def modem(self):
        return GfskModem(FS)

    def _rx(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)

    def test_close_to_the_double_precision_discriminator(self, modem):
        from repro.emulator.channel import apply_freq_offset

        # a GFSK packet 1.5 MHz above centre, over noise
        wave = BluetoothModulator(FS).modulate(TYPE_DH1, b"front end", clock=3)
        rx = 0.05 * self._rx(wave.size + 900)
        rx[400:400 + wave.size] += apply_freq_offset(wave, 1.5e6, FS)
        offsets = [1.5e6, -0.5e6, 0.0]
        disc = modem.discriminate_channels(rx, offsets)
        assert disc.shape == (3, rx.size) and disc.dtype == np.float32
        for row, offset_hz in enumerate(offsets):
            oracle = modem.discriminate(apply_freq_offset(rx, -offset_hz, FS))
            # phase wraps at +-pi move a sample by 2 pi on tiny differences
            close = np.abs(disc[row] - oracle) < 1e-3
            assert close.mean() > 0.999
        on_channel = modem.discriminate(apply_freq_offset(rx, -1.5e6, FS))
        assert np.abs(disc[0] - on_channel)[450:400 + wave.size - 50].max() < 1e-3

    def test_rows_and_tiles_do_not_interact(self, modem, monkeypatch):
        from repro.phy import gfsk

        rx = self._rx(20_011, seed=2)
        offsets = [-3.5e6, 0.5e6, 2.5e6, 1.2345678e6]
        whole = modem.discriminate_channels(rx, offsets)
        for row, offset_hz in enumerate(offsets):
            alone = modem.discriminate_channels(rx, [offset_hz])[0]
            assert np.array_equal(alone, whole[row])
        # 1: the shortest tile (17 derivatives); 5 332: 1 333 a row, so
        # the last tile would be 15 derivatives, a 32-sample piece that
        # np.convolve sums the other way round — it joins the one before
        for tile in (1, 999, 5332, 4096, 3 * 8192, 65536):
            monkeypatch.setattr(gfsk, "_TILE", tile)
            tiled = modem.discriminate_channels(rx, offsets)
            # the oscillator is indexed from the range's first sample,
            # so a tile mixes its samples exactly as the whole range does
            assert np.array_equal(tiled, whole)

    def test_an_offset_off_the_raster_takes_the_computed_mixer(self, modem):
        from repro.emulator.channel import apply_freq_offset

        rx = self._rx(6_000, seed=3)
        offset_hz = 1.2345678e6  # no period of 64 samples or fewer
        oracle = modem.discriminate(apply_freq_offset(rx, -offset_hz, FS))
        disc = modem.discriminate_channels(rx, [offset_hz])[0]
        assert (np.abs(disc - oracle) < 1e-3).mean() > 0.999

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_short_to_differentiate(self, modem, n):
        assert modem.discriminate_channels(self._rx(n), [0.0, 1e6]).shape == (2, 0)

    def test_two_samples(self, modem):
        disc = modem.discriminate_channels(self._rx(2), [0.5e6])
        assert disc.shape == (1, 2) and not disc.any()

    def test_no_channel_filter(self):
        modem = GfskModem(FS, channel_filter=False)
        rx = self._rx(5_000, seed=4)
        disc = modem.discriminate_channels(rx)[0]
        assert (np.abs(disc - modem.discriminate(rx)) < 1e-3).mean() > 0.999

    def test_frequency_rows_are_the_rows_before_centring(self, modem):
        rx = self._rx(3_001, seed=5)
        rows = modem.frequency_rows(rx, [0.5e6, -1.5e6])
        disc = modem.discriminate_channels(rx, [0.5e6, -1.5e6])
        assert np.array_equal(centre(rows.copy()), disc)
        assert not np.array_equal(rows, disc)


# -- a slice's rows, derived from its range's ---------------------------------

#: every in-band channel of an 8 MHz capture centred between two channels
EIGHT = [-3.5e6, -2.5e6, -1.5e6, -0.5e6, 0.5e6, 1.5e6, 2.5e6, 3.5e6]
#: no period of 64 samples or fewer: the mixer evaluates np.exp
OFF_RASTER = 1.2345678e6


def _rediscriminated(modem, rx, offsets, lo, hi):
    """discriminate_channels(rx[lo:hi]) with the oscillator still indexed
    from rx[0], as the range's rows have it."""
    return centre(modem._frequency_rows(rx[lo:hi], offsets, lo))


class TestDiscriminateSlice:
    @pytest.fixture(scope="class")
    def modem(self):
        return GfskModem(FS)

    def _rx(self, n, seed):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)

    def _assert_derived(self, modem, rx, offsets, bounds):
        rows = modem.frequency_rows(rx, offsets)
        for lo, hi in bounds:
            derived = modem.discriminate_slice(rx, rows, offsets, lo, hi)
            assert derived.shape == (len(offsets), hi - lo)
            assert derived.dtype == np.float32
            assert np.array_equal(derived, _rediscriminated(modem, rx, offsets, lo, hi)), \
                (lo, hi)

    def _random_bounds(self, n, count, seed):
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, n - 1, count)
        return [(int(a), int(rng.integers(a + 2, n + 1))) for a in lo]

    @pytest.mark.parametrize("offset_hz", [-1.5e6, 0.0, OFF_RASTER])
    def test_one_hinted_row(self, modem, offset_hz):
        rx = self._rx(23_457, seed=11)
        self._assert_derived(modem, rx, [offset_hz], self._random_bounds(rx.size, 60, 1))

    def test_eight_rows_over_several_tiles(self, modem):
        # 8 rows: 8 192 derivatives a tile, so a range of 30 001 is four
        # tiles and most slices cross a tile edge
        rx = self._rx(30_001, seed=12)
        self._assert_derived(modem, rx, EIGHT, self._random_bounds(rx.size, 40, 2))

    def test_off_raster_among_eight(self, modem):
        rx = self._rx(20_000, seed=13)
        offsets = EIGHT[:7] + [OFF_RASTER]
        self._assert_derived(modem, rx, offsets, self._random_bounds(rx.size, 20, 3))

    @pytest.mark.parametrize("offsets", [[2.5e6], EIGHT, [OFF_RASTER]])
    def test_range_edges_and_short_slices(self, modem, offsets):
        n = 9_001
        rx = self._rx(n, seed=14)
        edge = 2 * modem._half + 2
        bounds = [(0, n), (0, 5_000), (4_000, n), (0, 2), (n - 2, n),
                  (700, 705), (700, 700 + 2 * edge - 1), (700, 700 + 2 * edge),
                  (n - 2 * edge, n), (0, 2 * edge + 1), (1, n - 1)]
        self._assert_derived(modem, rx, offsets, bounds)

    def test_all_zero_range(self, modem):
        rx = np.zeros(12_000, np.complex64)
        rows = modem.frequency_rows(rx, EIGHT)
        for lo, hi in [(0, 12_000), (300, 9_000), (5, 40)]:
            derived = modem.discriminate_slice(rx, rows, EIGHT, lo, hi)
            assert not derived.any()
            assert np.array_equal(derived, _rediscriminated(modem, rx, EIGHT, lo, hi))

    def test_on_the_phase_grid_it_is_discriminate_channels(self, modem):
        # at 8 Msps a 1 MHz raster offset repeats every 8 samples: a slice
        # starting on a multiple of 8 has the range's phase reference
        rx = self._rx(15_000, seed=15)
        rows = modem.frequency_rows(rx, EIGHT)
        for lo, hi in [(0, 15_000), (800, 14_003), (4_096, 9_999)]:
            assert np.array_equal(modem.discriminate_slice(rx, rows, EIGHT, lo, hi),
                                  modem.discriminate_channels(rx[lo:hi], EIGHT))

    def test_no_channel_filter(self):
        modem = GfskModem(FS, channel_filter=False)
        rx = self._rx(5_000, seed=16)
        self._assert_derived(modem, rx, [0.5e6, OFF_RASTER],
                             self._random_bounds(rx.size, 20, 4) + [(0, 2), (10, 14)])
