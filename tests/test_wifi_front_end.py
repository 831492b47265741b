"""The front end of ``WifiStreamDecoder.scan``: each question asked once.

Four forms replaced a loop each — all symbol alignments from one
differential product, both SFDs from one word array, template ranking
from lag sums, the acquisition metric by doubling.  The forms they
replaced are copied in below as oracles: candidate lists and metrics
must equal theirs to the bit, the ranking must pick their template.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.analysis import decoders
from repro.analysis.decoders import WifiStreamDecoder
from repro.bench.scenarios import preset_buffer
from repro.bench.suite import dispatched_wifi_ranges
from repro.phy import dsss, plcp
from repro.phy.wifi import WifiDemodulator
from repro.util.bits import descramble_stream

FS = 8e6
SPS = 8
DURATION = 0.06


def _noise(n, seed, level=1.0):
    rng = np.random.default_rng(seed)
    return (level * (rng.normal(size=n) + 1j * rng.normal(size=n))).astype(np.complex64)


@pytest.fixture(scope="module")
def real_ranges():
    return [sub
            for preset, snr_db in (("mix", 20.0), ("broadcast", 8.0), ("wifi", 4.0))
            for sub in dispatched_wifi_ranges(preset, DURATION, snr_db=snr_db)]


# -- the forms as they were ---------------------------------------------------

def _metrics_by_gather(demod, window):
    """Each score's 32 terms gathered contiguous, then ``np.sum``."""
    mags = np.abs(demod.correlate_bank(window))
    span = (demod._ACQ_SYMBOLS - 1) * demod._sps
    terms = sliding_window_view(mags, span + 1, axis=1)[:, :, ::demod._sps]
    return np.ascontiguousarray(terms).sum(axis=2)


def _sfd_ends_by_find(bits, pattern, sync_bit):
    """The restarting ``bytes.find`` search over one stream."""
    stream, needle = bits.tobytes(), pattern.tobytes()
    ends, pos = [], 0
    start = stream.find(needle)
    while start >= 0:
        lead = bits[max(start - 8, pos):start]
        if lead.all() if sync_bit else not lead.any():
            ends.append(start + pattern.size)
            pos = start + pattern.size + 1
            start = stream.find(needle, pos)
        else:
            start = stream.find(needle, start + 1)
    return ends


_PATTERNS = ((plcp.SFD_BITS, 1, 144), (plcp.SHORT_SFD_BITS, 0, 72))


def _candidates_per_alignment(corr, sps=SPS):
    """One differential pass, one descramble and two searches per alignment."""
    candidates = []
    for align in range(sps):
        jumps = dsss.differential_decisions(corr[align::sps])
        if jumps.size == 0:
            continue
        descrambled = descramble_stream(dsss.dbpsk_bits_from_jumps(jumps))
        candidates.extend(
            align + max(sfd_end - preamble_bits, 0) * sps
            for pattern, sync_bit, preamble_bits in _PATTERNS
            for sfd_end in _sfd_ends_by_find(descrambled, pattern, sync_bit)
        )
    return sorted(candidates)


def _ends_per_stream(bits, short, stride):
    """``find_all_sfds`` of interleaved streams, one stream at a time."""
    pattern, sync_bit, _ = _PATTERNS[short]
    return sorted(
        stream + end * stride
        for stream in range(stride)
        for end in _sfd_ends_by_find(np.ascontiguousarray(bits[stream::stride]),
                                     pattern, sync_bit)
    )


def _strongest_by_bank(demod, samples, tile=8192):
    """Energy of every row of the correlation bank, a tile at a time."""
    sps = demod._sps
    offsets = max(samples.size - sps + 1, 0)
    energy = np.zeros(len(demod._templates))
    for lo in range(0, offsets, tile):
        hi = min(lo + tile, offsets)
        parts = demod.correlate_bank(samples[lo:hi + sps - 1]).view(np.float32)
        energy += np.einsum("ij,ij->i", parts, parts)
    return int(np.argmax(energy))


# -- (a) acquisition metric ---------------------------------------------------

class TestAcquisitionMetric:
    @pytest.mark.parametrize("size", [256, 263, 300, 2048, 2112, 5000])
    def test_doubling_is_np_sum_to_the_bit(self, size):
        # also pins numpy's order for 32 contiguous float32 terms: eight
        # running accumulators, then a fixed tree
        demod = WifiDemodulator(FS)
        window = _noise(size, seed=size)
        metrics = demod._acquisition_metrics(window)
        assert metrics.dtype == np.float32
        assert metrics.shape == (len(demod._templates), size - 32 * SPS + 1)
        assert np.array_equal(metrics.view(np.uint32),
                              _metrics_by_gather(demod, window).view(np.uint32))

    def test_on_a_preamble_at_22_msps(self):
        demod = WifiDemodulator(22e6)
        window = _noise(2048, seed=1, level=0.1)
        window[100:100 + 22 * 40] += np.tile(demod._templates[2], 40)
        assert np.array_equal(demod._acquisition_metrics(window).view(np.uint32),
                              _metrics_by_gather(demod, window).view(np.uint32))


# -- (b) candidates: every alignment, both SFDs, one pass ---------------------

def _stream(nbits, plants, seed=0, fill=None):
    """Random (or constant) bits with ``(position, pattern)`` written in."""
    if fill is None:
        bits = np.random.default_rng(seed).integers(0, 2, nbits).astype(np.uint8)
    else:
        bits = np.full(nbits, fill, dtype=np.uint8)
    for position, pattern in plants:
        bits[position:position + len(pattern)] = pattern
    return bits


def _interleave(streams, drop=0):
    """Bit ``m`` of stream ``a`` at ``a + m * len(streams)``, the last ``drop`` cut."""
    stride = len(streams)
    bits = np.zeros(streams[0].size * stride - drop, dtype=np.uint8)
    for a, stream in enumerate(streams):
        bits[a::stride] = stream[:bits[a::stride].size]
    return bits


LONG = np.concatenate([np.ones(8, np.uint8), plcp.SFD_BITS])
SHORT = np.concatenate([np.zeros(8, np.uint8), plcp.SHORT_SFD_BITS])


class TestCandidates:
    def test_real_ranges_whatever_the_tile(self, real_ranges):
        # the scan searches a chunk at a time: chunks see the whole's SFDs
        decoder = WifiStreamDecoder(FS)
        found = 0
        for sub in real_ranges:
            demod = decoder.demodulator
            corr = demod.correlate(sub.samples, demod.strongest_template(sub.samples))
            expected = _candidates_per_alignment(corr)
            found += len(expected)
            assert decoder._candidate_starts(corr) == expected
            for tile in (decoders._SFD_TILE, 4096, 1000, 121):
                assert sorted(start for lo in range(0, corr.size, tile)
                              for start in decoder._candidate_starts(corr, lo, lo + tile)) \
                    == expected
        assert found > 3 * len(real_ranges) // 2

    @pytest.mark.parametrize("size", [0, 1, 8, 9, 16, 135, 136, 137, 191, 192, 200])
    def test_correlations_shorter_than_24_symbols(self, size):
        corr = _noise(size, seed=size)
        assert WifiStreamDecoder(FS)._candidate_starts(corr) \
            == _candidates_per_alignment(corr)

    @pytest.mark.parametrize("stride", [1, 3, 8])
    @pytest.mark.parametrize("plants", [
        [(40, LONG)],
        [(40, SHORT)],
        [(0, plcp.SFD_BITS)],                                 # empty lead
        [(3, plcp.SHORT_SFD_BITS)],                           # lead cut by the stream start
        [(10, LONG), (34, plcp.SFD_BITS)],                    # back to back: inside the restart gap
        [(10, LONG), (35, plcp.SFD_BITS)],                    # on the resume position: empty lead
        [(10, LONG), (36, plcp.SFD_BITS)],                    # one bit past it: a one-bit lead
        [(10, LONG), (36, plcp.SHORT_SFD_BITS)],
        [(20, LONG), (20 + 18, SHORT)],                       # short SFD overlapping the long one's tail
        [(20, SHORT), (20 + 12, LONG)],
        [(5, LONG), (60, SHORT), (61 + 24, LONG), (150, SHORT)],
    ])
    def test_planted_streams(self, plants, stride):
        for fill in (None, 0, 1):
            # stream a carries the plants a bits later; the last streams end a bit short
            streams = [_stream(200, [(at + a, pattern) for at, pattern in plants],
                               seed=a, fill=fill) for a in range(stride)]
            bits = _interleave(streams, drop=stride // 2)
            for short in (False, True):
                assert plcp.find_all_sfds(bits, short, stride) \
                    == _ends_per_stream(bits, short, stride)

    def test_planted_streams_do_find_something(self):
        bits = _stream(200, [(10, LONG), (35, plcp.SFD_BITS), (90, SHORT)], fill=1)
        assert plcp.find_all_sfds(bits) == [34, 51]
        assert plcp.find_all_sfds(bits, short=True) == [114]
        strided = np.repeat(bits, 3)
        assert plcp.find_all_sfds(strided, stride=3) \
            == sorted(a + 3 * end for end in (34, 51) for a in range(3))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(["0", "1", "L", "S", "l", "s"]), max_size=60),
           st.integers(1, 4), st.integers(0, 3))
    def test_any_stream_matches_the_per_stream_search(self, pieces, stride, drop):
        parts = {"0": [0], "1": [1], "L": LONG, "S": SHORT,
                 "l": plcp.SFD_BITS, "s": plcp.SHORT_SFD_BITS}
        bits = np.array([b for piece in pieces for b in parts[piece]], dtype=np.uint8)
        bits = bits[:max(bits.size - drop, 0)]
        for short in (False, True):
            assert plcp.find_all_sfds(bits, short, stride) \
                == _ends_per_stream(bits, short, stride)


# -- (c) the sign of the real part against the phase --------------------------

def _bits_by_angle(y, lag):
    out = np.zeros(max(y.size - lag, 0), dtype=np.uint8)
    for align in range(lag):
        bits = dsss.dbpsk_bits_from_jumps(dsss.differential_decisions(y[align::lag]))
        out[align::lag] = bits
    return out


class TestSignAgainstAngle:
    def test_adversarial_products(self):
        tiny = np.float32(2.0 ** -100)
        denormal = np.float32(1e-42)
        parts = np.array([0.0, -0.0, tiny, -tiny, denormal, -denormal, 1.0, -1.0,
                          2.0 ** -21, -2.0 ** -21, 3e38, -3e38,
                          np.inf, -np.inf, np.nan], dtype=np.float32)
        values = np.empty(parts.size ** 2, dtype=np.complex64)
        values.real, values.imag = np.repeat(parts, parts.size), np.tile(parts, parts.size)
        covered = np.zeros(0, dtype=np.complex64)
        with np.errstate(all="ignore"):
            for previous in (1, -1, 1j, -1j, 1 + 1j, tiny, 3e38):
                y = np.concatenate([np.full(values.size, previous, dtype=np.complex64),
                                    values])
                lag = values.size
                assert np.array_equal(dsss.dbpsk_bits_at_lag(y, lag), _bits_by_angle(y, lag))
                covered = np.concatenate([covered, y[lag:] * np.conj(y[:-lag])])
        re, im = covered.real, covered.imag
        # the cases the sign rule alone would get wrong, or could
        assert np.any((re == 0) & np.signbit(re) & (im != 0))
        assert np.any((re == 0) & (im == 0) & np.signbit(re))
        assert np.any((re < 0) & (np.abs(re) < 2.0 ** -23 * np.abs(im)) & np.isfinite(im))
        assert np.any((re != 0) & (np.abs(re) < 1.2e-38))
        assert np.any(np.isnan(re)) and np.any(np.isinf(re)) and np.any(np.isinf(im))

    def test_real_parts_around_the_margin(self):
        rng = np.random.default_rng(4)
        im = rng.normal(size=40_000).astype(np.float32)
        re = (im * np.float32(2.0) ** -rng.integers(15, 30, im.size)
              * rng.choice([-1, 1], im.size)).astype(np.float32)
        values = (re + 1j * im).astype(np.complex64)
        y = np.concatenate([np.ones(values.size, dtype=np.complex64), values])
        bits = dsss.dbpsk_bits_at_lag(y, values.size)
        assert np.array_equal(bits, _bits_by_angle(y, values.size))
        # float32 arctan2 rounds a sliver of negative real parts onto pi/2
        assert np.any(bits != (re < 0))

    @pytest.mark.parametrize("lag", [1, 8, 22])
    @pytest.mark.parametrize("size", [0, 1, 8, 9, 23, 4099])
    def test_noise_at_every_alignment(self, size, lag):
        y = _noise(size, seed=size + lag)
        bits = dsss.dbpsk_bits_at_lag(y, lag)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, _bits_by_angle(y, lag))


# -- (d) ranking ----------------------------------------------------------------

class TestRanking:
    @pytest.mark.parametrize("snr_db", [20.0, 8.0, 4.0])
    @pytest.mark.parametrize("preset", ["mix", "broadcast", "wifi"])
    def test_lag_sums_pick_the_bank_s_template(self, preset, snr_db):
        demod = WifiDemodulator(FS)
        ranges = dispatched_wifi_ranges(preset, DURATION, snr_db=snr_db)
        assert ranges
        for sub in ranges:
            assert demod.strongest_template(sub.samples) \
                == _strongest_by_bank(demod, sub.samples)

    @pytest.mark.parametrize("size", [0, 7, 8, 9, 31, 32])
    def test_ranges_of_a_few_samples(self, size):
        demod = WifiDemodulator(FS)
        for seed in range(20):
            x = _noise(size, seed=100 * size + seed)
            assert demod.strongest_template(x) == _strongest_by_bank(demod, x)

    def test_energies_are_the_bank_s_to_rounding(self):
        # the ends are where the lag sums overcount: 7 partial overlaps each
        demod = WifiDemodulator(FS)
        x = _noise(15, seed=2)
        x[:7] *= 50
        x[-7:] *= 50
        bank = demod.correlate_bank(x).astype(np.complex128)
        expected = int(np.argmax(np.sum(np.abs(bank) ** 2, axis=1)))
        assert demod.strongest_template(x) == expected


# -- (e) memory ---------------------------------------------------------------

def test_whole_trace_scan_peaks_no_higher_than_before():
    # the parent held the kept correlation (12.8 MB) plus 3.4 MB of
    # per-alignment temporaries: 16.2 MB traced at the peak
    buffer = preset_buffer("broadcast", 0.2, seed=3)
    assert len(buffer) == 1_600_000
    decoder = WifiStreamDecoder(FS)
    tracemalloc.start()
    try:
        records = decoder.scan(buffer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) > 20
    assert peak <= 16_204_968
