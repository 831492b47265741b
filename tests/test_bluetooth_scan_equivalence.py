"""``BluetoothStreamDecoder``: the all-channels, all-alignments scan vs
its reference twin.

The default scan takes every channel's discriminator output and every
symbol alignment's sync-word correlation from one pass each, in single
precision; the ``impl="reference"`` twin keeps the earlier flow (per
channel an ``np.exp`` mixer and a double-precision filter, per alignment
a reduction and an ``np.correlate``).  The two must return equal records
on every range, hinted or not, which makes every monitor's event stream
byte-identical.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.decoders import BluetoothStreamDecoder
from repro.bench.equivalence import (
    EquivalenceError,
    assert_bluetooth_scan_equivalence,
)
from repro.bench.scenarios import preset_buffer
from repro.bench.suite import dispatched_bluetooth_ranges
from repro.core.config import MonitorConfig
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer
from repro.emulator.channel import apply_freq_offset
from repro.errors import ChecksumError, DecodeError, SyncError
from repro.faults.harness import split_windows
from repro.phy.bluetooth import (
    BluetoothDemodulator,
    BluetoothModulator,
    TYPE_DH1,
    TYPE_DH5,
    TYPE_DM3,
    TYPE_POLL,
)
from repro.phy.bluetooth_fh import channel_freq
from repro.phy.gfsk import GfskModem

FS = 8e6
CENTER = 2.4415e9
#: ether per preset: enough for the bluetooth preset to land a few packets
#: in the 8 MHz band at either SNR
DURATION = 0.3


#: traces on which every Bluetooth timing claim sits on a peak that carries
#: Barker chipping end to end: dispatch overrules them all and forwards no
#: Bluetooth range.  The other presets still forward hint-less ranges
#: (mix at 6 dB, campus, kitchen at 6 and 8.5 dB, bluetooth at 6 dB), and
#: every range is scanned without its hint as well.
NO_BLUETOOTH_RANGES = {("wifi", 6.0), ("wifi", 8.5), ("wifi", 20.0),
                       ("kitchen", 20.0)}


# 6 dB forwards Bluetooth ranges but none of them decodes; at 8.5 dB
# about half do, which is where a bit decision is likeliest to differ
@pytest.mark.parametrize("snr_db", [6.0, 8.5, 20.0])
@pytest.mark.parametrize("preset", ["bluetooth", "mix", "wifi", "campus", "kitchen"])
def test_records_equal_per_dispatched_range(preset, snr_db):
    # each range is scanned with the hint the detectors gave it and
    # with none (all eight in-band channels)
    ranges = dispatched_bluetooth_ranges(preset, DURATION, snr_db=snr_db, seed=3)
    if (preset, snr_db) in NO_BLUETOOTH_RANGES:
        assert ranges == []
        return
    assert ranges
    assert_bluetooth_scan_equivalence(ranges)


def test_hinted_ranges_decode():
    ranges = dispatched_bluetooth_ranges("bluetooth", DURATION, seed=3)
    assert ranges and all(hint is not None for _, hint in ranges)
    assert assert_bluetooth_scan_equivalence(ranges)["packets"] == len(ranges)


def test_whole_trace_unhinted():
    buffer = preset_buffer("bluetooth", 0.1, seed=3)
    found = [BluetoothStreamDecoder(FS, impl=impl).scan(buffer)
             for impl in ("reference", "vectorized")]
    assert found[0] == found[1]
    assert found[1]


def _event_lines(buffer, window, impl):
    with StreamingMonitor(config=MonitorConfig(), overlap=48_000) as monitor:
        monitor.monitor.decoders["bluetooth"] = (
            BluetoothStreamDecoder(buffer.sample_rate, impl=impl))
        return [event.to_json()
                for event in monitor.events(split_windows(buffer, window))]


@pytest.mark.parametrize("window", [2_400_000, 160_000])
@pytest.mark.parametrize("preset,snr_db", [("bluetooth", 8.5), ("bluetooth", 20.0),
                                           ("mix", 20.0)])
def test_event_lines_identical(preset, snr_db, window):
    buffer = preset_buffer(preset, DURATION, snr_db=snr_db, seed=11)
    lines = _event_lines(buffer, window, "vectorized")
    assert lines == _event_lines(buffer, window, "reference")
    if snr_db == 20.0:
        assert any('"protocol":"bluetooth"' in line for line in lines)


def _counting_correlations(monkeypatch):
    calls = []
    search = GfskModem._sync_correlation

    def counted(self, disc, sync_bits, centred):
        calls.append(disc.shape)
        return search(self, disc, sync_bits, centred)

    monkeypatch.setattr(GfskModem, "_sync_correlation", counted)
    return calls


def test_a_whole_range_hit_reuses_the_range_search(monkeypatch):
    """On the l2ping trace every hinted range decodes one packet from a
    slice that is the whole range: one sync correlation per range."""
    ranges = dispatched_bluetooth_ranges("bluetooth", DURATION, seed=3)
    calls = _counting_correlations(monkeypatch)
    decoder = BluetoothStreamDecoder(FS)
    for buffer, hint in ranges:
        del calls[:]
        assert len(decoder.scan(buffer, hint)) == 1
        assert calls == [(1, len(buffer))]


@pytest.mark.parametrize("preset,snr_db", [("bluetooth", 8.5), ("bluetooth", 20.0),
                                           ("mix", 20.0)])
def test_records_equal_with_the_reuse_off(monkeypatch, preset, snr_db):
    """The range's row and the re-correlated slice give the same records,
    hinted and over all eight channels."""
    ranges = dispatched_bluetooth_ranges(preset, DURATION, snr_db=snr_db, seed=3)
    decoder = BluetoothStreamDecoder(FS)
    scans = [(buffer, hint) for buffer, hint in ranges] + [
        (buffer, None) for buffer, _ in ranges]
    reused = [decoder.scan(buffer, hint) for buffer, hint in scans]
    demodulate = BluetoothDemodulator.demodulate_discriminated
    monkeypatch.setattr(BluetoothDemodulator, "demodulate_discriminated",
                        lambda self, disc, correlation=None: demodulate(self, disc))
    calls = _counting_correlations(monkeypatch)
    assert [decoder.scan(buffer, hint) for buffer, hint in scans] == reused
    assert len(calls) > len(scans)  # the slices were correlated again
    assert any(reused)


def test_the_hook_notices_a_difference(monkeypatch):
    ranges = dispatched_bluetooth_ranges("bluetooth", 0.1, seed=3)
    monkeypatch.setattr(BluetoothStreamDecoder, "_scan_channels",
                        lambda self, buffer, channels: [])
    with pytest.raises(EquivalenceError, match="Bluetooth scan differs on range"):
        assert_bluetooth_scan_equivalence(ranges)


# -- hand-built edge ranges ---------------------------------------------------

def _noise(n, level=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return (level * (rng.normal(size=n) + 1j * rng.normal(size=n))).astype(np.complex64)


def _on_channel(wave, channel):
    return apply_freq_offset(wave, channel_freq(channel) - CENTER, FS)


def _place(waves, total, seed=0, level=0.05):
    """Noise of ``total`` samples with each ``(offset, wave)`` added in."""
    rx = _noise(total, level, seed)
    for offset, wave in waves:
        rx[offset:offset + wave.size] += wave
    return SampleBuffer.from_array(rx, FS, start_sample=12_345)


def _both(buffer, channel_hint=None, **kwargs):
    found = [BluetoothStreamDecoder(FS, impl=impl, **kwargs).scan(buffer, channel_hint)
             for impl in ("reference", "vectorized")]
    assert found[0] == found[1]
    return found[1]


@pytest.fixture(scope="module")
def modulator():
    return BluetoothModulator(FS)


@pytest.fixture(scope="module")
def dh1(modulator):
    return modulator.modulate(TYPE_DH1, b"edge range", clock=21)


class TestEdgeRanges:
    def test_packet_clipped_at_range_start(self, dh1):
        # the preamble begins 10 samples in: the candidate's 96-sample
        # lead is cut at the range boundary (lo == 0)
        records = _both(_place([(10, _on_channel(dh1, 38))], dh1.size + 400), 38)
        assert len(records) == 1
        assert abs(records[0].start_sample - 12_345 - 10) <= 4

    def test_range_starts_inside_the_preamble(self, dh1):
        wave = _on_channel(dh1, 38)[20:]
        records = _both(_place([(0, wave)], wave.size + 400), 38)
        assert len(records) == 1
        assert records[0].start_sample == 12_345  # clamped to the range

    def test_range_truncated_mid_payload(self, dh1):
        cut = _on_channel(dh1, 40)[: (72 + 54 + 30) * 8]
        assert _both(_place([(300, cut)], 300 + cut.size), 40) == []

    def test_range_ends_with_the_packet(self, dh1):
        records = _both(_place([(300, _on_channel(dh1, 40))], 300 + dh1.size), 40)
        assert len(records) == 1
        assert abs(records[0].end_sample - (12_345 + 300 + dh1.size)) <= 4

    @pytest.mark.parametrize("size", [0, 1, 7, 40, 64 * 8 - 1, 64 * 8, 64 * 8 + 3])
    def test_range_about_a_sync_word_long(self, size):
        assert _both(SampleBuffer.from_array(_noise(size, 1.0), FS)) == []

    def test_length_off_the_symbol_grid(self, dh1):
        records = _both(_place([(203, _on_channel(dh1, 36))], dh1.size + 1001), 36)
        assert len(records) == 1

    def test_two_packets_on_one_channel(self, modulator, dh1):
        poll = modulator.modulate(TYPE_POLL, b"", clock=5)
        second = 500 + dh1.size + 2_000
        records = _both(_place([(500, _on_channel(dh1, 41)),
                                (second, _on_channel(poll, 41))],
                               second + poll.size + 500), 41)
        assert [r.payload_size for r in records] == [len(b"edge range"), 0]
        assert abs(records[1].start_sample - 12_345 - second) <= 4

    def test_packets_on_two_channels_at_once_unhinted(self, modulator, dh1):
        dm3 = modulator.modulate(TYPE_DM3, bytes(range(90)), clock=33)
        # starts 64 symbols apart or more: closer ones are one record
        buffer = _place([(400, _on_channel(dh1, 37)), (1_400, _on_channel(dm3, 42))],
                        max(dh1.size, dm3.size) + 2_000)
        records = _both(buffer)
        assert [(r.channel, r.payload_size) for r in records] == [(37, 10), (42, 90)]
        assert _both(buffer, 42)[0].decoded.payload == bytes(range(90))
        assert _both(buffer, 39) == []

    def test_hint_outside_the_band_scans_every_channel(self, dh1):
        buffer = _place([(400, _on_channel(dh1, 43))], dh1.size + 900)
        assert len(_both(buffer, 70)) == 1

    def test_five_slot_packet(self, modulator):
        dh5 = modulator.modulate(TYPE_DH5, bytes(i & 0xFF for i in range(339)), clock=60)
        records = _both(_place([(1_000, _on_channel(dh5, 39))], dh5.size + 2_000), 39)
        assert len(records) == 1 and records[0].payload_size == 339

    def test_low_snr(self, dh1):
        # ~6 dB in the 8 MHz band: decodes or not, both ways the same
        for seed in range(6):
            _both(_place([(600, _on_channel(dh1, 38))], dh1.size + 1_200,
                         seed=seed, level=0.35), 38)

    def test_capture_centred_on_a_channel(self, dh1):
        # zero offset for channel 39: that row skips the mixer
        buffer = _place([(400, dh1)], dh1.size + 900)
        records = _both(buffer, center_freq=2.441e9)
        assert [r.channel for r in records] == [39]

    def test_all_noise(self):
        assert _both(SampleBuffer.from_array(_noise(30_000, 1.0), FS)) == []

    def test_all_zero_range(self):
        # what the sanitizer leaves of a range of NaNs
        assert _both(SampleBuffer.from_array(np.zeros(9_000, np.complex64), FS)) == []

    def test_rejects_unknown_impl(self):
        with pytest.raises(ValueError):
            BluetoothStreamDecoder(FS, impl="fast")

    def test_decoders_pickle(self, dh1):
        buffer = _place([(400, _on_channel(dh1, 38))], dh1.size + 900)
        for impl in ("reference", "vectorized"):
            decoder = BluetoothStreamDecoder(FS, impl=impl)
            clone = pickle.loads(pickle.dumps(decoder))
            assert clone.impl == impl
            assert clone.scan(buffer, 38) == decoder.scan(buffer, 38)


# -- BluetoothDemodulator.demodulate against its twin -------------------------

class TestDemodulate:
    @pytest.fixture(scope="class")
    def demod(self):
        return BluetoothDemodulator(FS)

    def _outcome(self, decode, rx):
        try:
            return decode(rx)
        except DecodeError as exc:
            return type(exc), str(exc)

    def _same(self, demod, rx):
        got = self._outcome(demod.demodulate, rx)
        assert got == self._outcome(demod.demodulate_reference, rx)
        return got

    def test_packet(self, demod, dh1):
        packet = self._same(demod, _place([(333, dh1)], dh1.size + 700).samples)
        assert packet.payload == b"edge range" and packet.clock == 21

    def test_channel_offset(self, demod, dh1):
        rx = _place([(333, _on_channel(dh1, 37))], dh1.size + 700).samples
        offset_hz = channel_freq(37) - CENTER
        packet = demod.demodulate(rx, offset_hz)
        assert packet == demod.demodulate_reference(
            apply_freq_offset(rx, -offset_hz, FS))

    def test_no_sync(self, demod):
        kind, message = self._same(demod, _noise(6_000, 1.0))
        assert kind is SyncError and "best score" in message

    @pytest.mark.parametrize("n", [0, 1, 100, 64 * 8 - 1])
    def test_too_short_for_a_sync_word(self, demod, n):
        kind, message = self._same(demod, _noise(n, 1.0))
        assert kind is SyncError and "-inf" in message

    def test_truncated_header(self, demod, dh1):
        kind, message = self._same(
            demod, _place([(200, dh1[: (72 + 20) * 8])], 200 + (72 + 20) * 8).samples)
        assert kind is DecodeError and "truncated Bluetooth header" in message

    def test_payload_does_not_fit(self, demod, dh1):
        cut = dh1[: (72 + 54 + 40) * 8]
        kind, message = self._same(demod, _place([(200, cut)], 200 + cut.size).samples)
        assert kind is DecodeError and "does not fit" in message

    def test_payload_crc(self, demod, modulator):
        bits = modulator.packet_bits(TYPE_DH1, b"edge range", clock=21)
        bits[72 + 54 + 40] ^= 1
        wave = demod.modem.modulate(bits)
        kind, _ = self._same(demod, _place([(200, wave)], wave.size + 500).samples)
        assert kind is ChecksumError

    def test_header_bit_errors(self, demod, modulator):
        # two of a header bit's three copies flipped: the majority
        # flips, and the header either fails its check for every seed
        # or passes it for a wrong one
        messages = set()
        for k in range(18):
            bits = modulator.packet_bits(TYPE_DH1, b"edge range", clock=21)
            bits[72 + 3 * k : 72 + 3 * k + 2] ^= 1
            wave = demod.modem.modulate(bits)
            got = self._same(demod, _place([(200, wave)], wave.size + 500).samples)
            if isinstance(got, tuple):
                assert issubclass(got[0], DecodeError)
                messages.add(got[1])
        assert "Bluetooth HEC failed for every whitening seed" in messages
