"""``WifiStreamDecoder``: the decode-forward scan vs its reference twin.

The default scan correlates a range once, searches it for SFDs a chunk
at a time, decodes only candidates that start a new packet and resumes
the search past each decoded packet (or where a stronger arrival
captures it); the ``impl="reference"`` twin keeps the earlier flow
(every grid-phase template, every SFD, a full demodulation per
candidate, duplicates dropped afterwards).  The two must return equal
records on every range below, which makes every monitor's event stream
byte-identical; the capture grid holds frames that start inside others.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.analysis.decoders import WifiStreamDecoder
from repro.bench.equivalence import assert_wifi_scan_equivalence
from repro.bench.scenarios import preset_buffer
from repro.bench.suite import capture_grid, dispatched_wifi_ranges
from repro.core.config import MonitorConfig
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer
from repro.errors import SyncError
from repro.faults.harness import split_windows
from repro.phy import dsss, wifi
from repro.phy.wifi import _RANK_TILE, WifiDemodulator, WifiModulator
from repro.phy.wifi_mac import build_ack_frame, build_data_frame

FS = 8e6
#: ether per scenario: one "200 ms" window (the whole trace) or three 20 ms ones
DURATION = 0.06


def _event_lines(buffer: SampleBuffer, window: int, impl: str):
    with StreamingMonitor(config=MonitorConfig(), overlap=48_000) as monitor:
        monitor.monitor.decoders["wifi"] = WifiStreamDecoder(
            buffer.sample_rate, impl=impl)
        return [event.to_json()
                for event in monitor.events(split_windows(buffer, window))]


@pytest.mark.parametrize("snr_db", [8.0, 20.0])
@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("preset", ["wifi", "mix", "broadcast", "campus", "kitchen"])
class TestPresets:
    def test_records_equal_per_dispatched_range(self, preset, seed, snr_db):
        ranges = dispatched_wifi_ranges(preset, DURATION, snr_db=snr_db, seed=seed)
        assert ranges
        assert_wifi_scan_equivalence(ranges)

    @pytest.mark.parametrize("window", [1_600_000, 160_000])
    def test_event_lines_identical(self, preset, seed, snr_db, window):
        buffer = preset_buffer(preset, DURATION, snr_db=snr_db, seed=seed)
        lines = _event_lines(buffer, window, "vectorized")
        assert lines == _event_lines(buffer, window, "reference")
        if snr_db == 20.0:
            assert any('"protocol":"wifi"' in line for line in lines)


# -- hand-built edge ranges ---------------------------------------------------

def _noise(n, level=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return (level * (rng.normal(size=n) + 1j * rng.normal(size=n))).astype(np.complex64)


def _place(waves, total, seed=0):
    """Noise of ``total`` samples with each ``(offset, wave)`` added in."""
    rx = _noise(total, seed=seed)
    for offset, wave in waves:
        rx[offset:offset + wave.size] += wave
    return SampleBuffer.from_array(rx, FS, start_sample=12_345)


def _both(buffer, **kwargs):
    found = [WifiStreamDecoder(FS, impl=impl, **kwargs).scan(buffer)
             for impl in ("reference", "vectorized")]
    assert found[0] == found[1]
    return found[1]


@pytest.fixture(scope="module")
def data_wave():
    return WifiModulator(FS).modulate(build_data_frame(1, 2, b"p" * 60), 1.0)


class TestEdgeRanges:
    def test_candidate_clipped_at_range_start(self, data_wave):
        # preamble begins 10 samples in: the candidate's 64-sample lead
        # is cut at the range boundary (lo == 0)
        records = _both(_place([(10, data_wave)], data_wave.size + 500))
        assert len(records) == 1
        assert records[0].start_sample - 12_345 < 64
        assert records[0].info["fcs_ok"]

    def test_range_truncated_mid_payload(self, data_wave):
        cut = data_wave[: 192 * 8 + 200]  # PLCP intact, payload cut short
        assert _both(_place([(300, cut)], 300 + cut.size)) == []

    def test_range_shorter_than_acquisition(self, data_wave):
        need = WifiDemodulator._ACQ_SYMBOLS * 8
        short = SampleBuffer.from_array(data_wave[: need - 1], FS)
        assert _both(short) == []

    def test_short_preamble_2mbps(self):
        wave = WifiModulator(FS).modulate(
            build_data_frame(1, 2, b"s" * 40), 2.0, preamble="short")
        records = _both(_place([(400, wave)], wave.size + 800))
        assert len(records) == 1
        assert records[0].info["preamble"] == "short"
        assert records[0].rate_mbps == 2.0
        assert records[0].info["fcs_ok"]

    def test_data_and_ack_in_one_range(self, data_wave):
        ack = WifiModulator(FS).modulate(build_ack_frame(1), 1.0)
        gap = 80  # SIFS at 8 Msps
        second = 300 + data_wave.size + gap
        records = _both(_place([(300, data_wave), (second, ack)],
                               second + ack.size + 300))
        assert [r.payload_size for r in records] == [len(build_data_frame(1, 2, b"p" * 60)),
                                                     len(build_ack_frame(1))]
        assert abs(records[1].start_sample - 12_345 - second) < 64

    def test_header_only(self, data_wave):
        records = _both(_place([(300, data_wave)], data_wave.size + 600),
                        decode_payload=False)
        assert len(records) == 1
        assert records[0].info["header_only"]
        assert records[0].decoded.mpdu == b""

    def test_all_noise(self):
        assert _both(SampleBuffer.from_array(_noise(60_000, 1.0), FS)) == []

    def test_empty_buffer(self):
        empty = SampleBuffer.from_array(np.zeros(0, dtype=np.complex64), FS)
        assert _both(empty) == []

    def test_rejects_unknown_impl(self):
        with pytest.raises(ValueError):
            WifiStreamDecoder(FS, impl="fast")


# -- decode forward: nothing inside a decoded packet is searched, unless ------
# -- a stronger arrival captures it -------------------------------------------

@pytest.fixture(scope="module")
def long_wave():
    """A 428-byte 1 Mbps frame: 3.6 ms, 28,928 samples."""
    return WifiModulator(FS).modulate(build_data_frame(1, 2, b"L" * 400), 1.0)


class TestDecodeForward:
    def test_capture_grid(self):
        # frame B starts inside frame A's payload; the reference searches
        # everywhere, so each B it decodes the default must find too
        both = Counter()
        for power_db, buffer in capture_grid():
            both[power_db] += sorted(r.payload_size for r in _both(buffer)) == [88, 428]
        # a search that skipped every decoded packet would find no B at all
        assert {0, 1, 2, 3, 6, 10, 20} <= {p for p, n in both.items() if n}, both

    def test_weaker_arrival_leaves_the_first_frame_alone(self, long_wave, data_wave):
        weak = np.float32(10 ** (-6 / 20)) * data_wave
        records = _both(_place([(300, long_wave), (300 + 8 * 1100, weak)],
                               long_wave.size + 600))
        assert [r.payload_size for r in records] == [428]

    def test_search_reads_a_fifth_of_a_single_frame_range(self, long_wave, monkeypatch):
        searched = []
        search = dsss.dbpsk_bits_at_lag

        def counting(correlations, lag):
            searched.append(correlations.size)
            return search(correlations, lag)

        monkeypatch.setattr(dsss, "dbpsk_bits_at_lag", counting)
        buffer = _place([(300, long_wave)], long_wave.size + 600)
        records = WifiStreamDecoder(FS).scan(buffer)
        assert [r.payload_size for r in records] == [428]
        assert sum(searched) <= 0.2 * len(buffer)


# -- the two primitives the shared-correlation flow leans on ------------------

def _strongest_by_walk(demod, samples):
    """The template ranking as first written: one full convolution per
    template, a strictly greater energy replaces the best so far."""
    best, best_energy = -1, -1.0
    for index, template in enumerate(demod._templates):
        if samples.size < template.size:
            return 0  # np.convolve would swap its arguments
        corr = np.convolve(samples, template[::-1], mode="valid")
        energy = float(np.sum(np.abs(corr) ** 2))
        if energy > best_energy:
            best, best_energy = index, energy
    return best


class TestCorrelationSlices:
    def test_slice_of_correlation_is_correlation_of_slice(self):
        demod = WifiDemodulator(FS)
        x = _noise(50_003, 1.0, seed=5)
        for index in range(len(demod._templates)):
            full = demod.correlate(x, index)
            for lo, hi in ((0, 4099), (1, 2049), (3, 40_003), (17, 2065),
                           (12_345, 50_003), (49_000, 49_017)):
                part = demod.correlate(x[lo:hi], index)
                assert np.array_equal(part.view(np.float32),
                                      full[lo:hi - 8 + 1].view(np.float32))

    @pytest.mark.parametrize("fs", [8e6, 22e6])
    def test_add_only_kernels_match_convolution(self, fs):
        # not bitwise: numpy's dot order is the platform's, and a chained
        # bank row sums in yet another order
        demod = WifiDemodulator(fs)
        x = _noise(20_011, 1.0, seed=6)
        bank = demod.correlate_bank(x)
        assert bank.shape == (len(demod._templates), x.size - demod._sps + 1)
        assert bank.dtype == np.complex64
        for index, template in enumerate(demod._templates):
            own = demod.correlate(x, index)
            assert np.allclose(own, np.convolve(x, template[::-1], "valid"),
                               rtol=0, atol=1e-5)
            assert np.allclose(bank[index], own, rtol=0, atol=1e-5)
        assert np.array_equal(bank[0].view(np.float32),
                              demod.correlate(x, 0).view(np.float32))

    def test_slice_of_bank_is_bank_of_slice(self):
        demod = WifiDemodulator(FS)
        x = _noise(50_003, 1.0, seed=5)
        full = demod.correlate_bank(x)
        for lo, hi in ((0, 4099), (1, 2049), (3, 40_003), (17, 2065),
                       (12_345, 50_003), (49_000, 49_017)):
            part = demod.correlate_bank(x[lo:hi])
            assert np.array_equal(part.view(np.float32),
                                  full[:, lo:hi - 8 + 1].view(np.float32))

    @pytest.mark.parametrize("size", [0, 7, 8, 8191, 8192, 8193, 8200])
    def test_lengths_around_a_symbol_and_a_tile(self, size, monkeypatch):
        monkeypatch.setattr(wifi, "_RANK_TILE", 8192)
        demod = WifiDemodulator(FS)
        x = _noise(size, 1.0, seed=size)
        offsets = max(size - 7, 0)
        assert demod.correlate(x, 3).shape == (offsets,)
        assert demod.correlate_bank(x).shape == (6, offsets)
        assert demod.strongest_template(x) == _strongest_by_walk(demod, x)

    def test_strided_and_double_precision_input(self):
        demod = WifiDemodulator(FS)
        x = _noise(6_001, 1.0, seed=8)
        strided = np.repeat(x, 2)[::2]
        assert not strided.flags.c_contiguous
        wide = x.astype(np.complex128)
        for index in range(len(demod._templates)):
            own = demod.correlate(x, index)
            assert np.array_equal(demod.correlate(strided, index), own)
            assert demod.correlate(wide, index).dtype == np.complex128
            assert np.allclose(demod.correlate(wide, index), own,
                               rtol=0, atol=1e-5)
        assert np.array_equal(demod.correlate_bank(strided),
                              demod.correlate_bank(x))
        assert np.allclose(demod.correlate_bank(wide), demod.correlate_bank(x),
                           rtol=0, atol=1e-5)

    @pytest.mark.parametrize("preset", ["wifi", "mix", "broadcast", "campus", "kitchen"])
    def test_strongest_template_is_the_walk_s_whatever_the_tiles(
            self, preset, monkeypatch):
        demod = WifiDemodulator(FS)
        ranges = dispatched_wifi_ranges(preset, DURATION)
        assert ranges
        for tile in (1_000, _RANK_TILE, 10 ** 9):
            monkeypatch.setattr(wifi, "_RANK_TILE", tile)
            for sub in ranges:
                assert demod.strongest_template(sub.samples) \
                    == _strongest_by_walk(demod, sub.samples)

    def test_exact_tie_goes_to_the_earlier_template(self):
        # one impulse: every +-1 template collects the same 8 unit taps
        demod = WifiDemodulator(FS)
        x = np.zeros(4_000, dtype=np.complex64)
        x[1_234] = 1.0
        assert demod.strongest_template(x) == 0
        assert _strongest_by_walk(demod, x) == 0

    def test_bank_keeps_first_of_each_distinct_template(self):
        demod = WifiDemodulator(FS)
        grid = [t.tobytes() for t in demod._grid_templates]
        bank = [t.tobytes() for t in demod._templates]
        assert len(grid) == len(demod._PHASES)
        assert bank == list(dict.fromkeys(grid))
        assert len(bank) < len(grid)

    def test_shared_acquisition_matches_per_candidate(self, data_wave):
        # neighbouring candidates read slices of one metric array; each
        # must pick what a stand-alone acquisition on its own slice picks
        demod = WifiDemodulator(FS)
        rx = _place([(700, data_wave), (700 + data_wave.size + 80, data_wave)],
                    2 * data_wave.size + 3000).samples
        bounds = [(0, 200), (636, 40_636), (637, 40_637), (639, rx.size),
                  (2000, 2255), (2001, 2257), (6900, rx.size), (rx.size - 100, rx.size)]
        timings = demod.acquire_each(rx, bounds)
        for (lo, hi), timing in zip(bounds, timings):
            try:
                template, offset = demod._acquire_reference(rx[lo:hi])
            except SyncError:
                assert timing is None
                continue
            assert timing is not None
            assert demod._templates[timing[0]].tobytes() == template.tobytes()
            assert timing[1] == offset
        assert timings[0] is None and timings[4] is None and timings[-1] is None
        assert timings[1] is not None and timings[5] is not None


def test_scan_of_a_whole_window_holds_two_correlations_at_most():
    # NaiveMonitor hands this decoder whole 200 ms windows: keeping the
    # correlation of every template (6 x 12.8 MB here) would show up in
    # the daemon's peak RSS
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
    assert peak < 4 * buffer.samples.nbytes
