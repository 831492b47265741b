"""Tests for the streaming monitor (the seam carried across windows)."""

import json
import tracemalloc

import numpy as np
import pytest

from repro import RFDumpMonitor, Scenario, WifiPingSession
from repro.core.config import MonitorConfig
from repro.core.monitor import make_monitor
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer
from repro.emulator.presets import build_preset
from repro.emulator.traffic import MicrowaveSource
from repro.obs import Observability


def _windows(buffer, size):
    out = []
    for lo in range(0, len(buffer), size):
        out.append(buffer.slice(lo, min(lo + size, len(buffer))))
    return out


def _stream(monitor, windows):
    """Every window's report, then the flush's."""
    return [monitor.process(window) for window in windows] + [monitor.flush()]


def _packets(reports):
    """The packets of every pass the reports hold, in order."""
    return [p for report in reports for r in report.passes()
            for p in r.packets]


def _classifications(reports):
    return [c for report in reports for r in report.passes()
            for c in r.classifications]


def _whole(truth, buffer, points):
    """Transmissions (in samples) that no flush point cuts."""
    to_samples = buffer.timebase.to_samples
    spans = [(int(to_samples(t.start_time)), int(to_samples(t.end_time)))
             for t in truth]
    return [(a, b) for a, b in spans if not any(a < p < b for p in points)]


@pytest.fixture(scope="module")
def straddle_trace():
    """A trace whose second exchange straddles the 300k-sample boundary."""
    scenario = Scenario(duration=0.1, seed=33)
    scenario.add(WifiPingSession(n_pings=2, snr_db=20.0, interval=45e-3))
    return scenario.render()


class TestStreamingMonitor:
    def test_no_packets_lost_at_boundaries(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        packets = _packets(_stream(monitor,
                                   _windows(straddle_trace.buffer, 300_000)))
        truth = straddle_trace.ground_truth.observable("wifi")
        assert len(packets) == len(truth)

    def test_no_duplicates(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        starts = [p.start_sample for p in _packets(_stream(
            monitor, _windows(straddle_trace.buffer, 200_000)))]
        assert len(starts) == len(set(starts))
        truth = straddle_trace.ground_truth.observable("wifi")
        assert len(starts) == len(truth)

    def test_matches_batch_monitor(self, straddle_trace):
        batch = RFDumpMonitor(protocols=("wifi",)).process(straddle_trace.buffer)
        stream = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        packets = _packets(_stream(stream,
                                   _windows(straddle_trace.buffer, 250_000)))
        assert sorted(p.start_sample for p in packets) == sorted(
            p.start_sample for p in batch.packets
        )

    def test_rejects_gap_in_stream(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.process(straddle_trace.buffer.slice(0, 100_000))
        with pytest.raises(ValueError):
            monitor.process(straddle_trace.buffer.slice(200_000, 300_000))

    def test_clock_accumulates(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        reports = _stream(monitor, _windows(straddle_trace.buffer, 400_000))
        assert sum(r.clock.seconds.get("peak_detection", 0.0)
                   for r in reports) > 0

    def test_rejects_negative_overlap(self):
        with pytest.raises(ValueError):
            StreamingMonitor(RFDumpMonitor(), overlap=-1)

    def test_first_window_shorter_than_overlap_clamps_frontier(
        self, straddle_trace
    ):
        """Regression: a first window shorter than the overlap must
        neither drop nor repeat anything the later windows decode."""
        buffer = straddle_trace.buffer
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        packets = _packets(_stream(monitor, [
            buffer.slice(0, 30_000),
            *_windows(buffer.slice(30_000, len(buffer)), 300_000)]))
        batch = RFDumpMonitor(protocols=("wifi",)).process(buffer)
        assert [p.start_sample for p in packets] == [
            p.start_sample for p in batch.packets]

    def test_flush_midstream_no_duplicates(self, straddle_trace):
        """A mid-stream flush finalises the open range exactly once: no
        later window re-emits what it decoded, and every transmission
        the flush did not cut is decoded.  (One it cuts is decoded as
        far as it had arrived, as across a stream gap.)"""
        buffer = straddle_trace.buffer
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        reports = []
        for window in _windows(buffer, 50_000):
            reports.append(monitor.process(window))
            # incremental consumer wants results now
            reports.append(monitor.flush())
        packets = _packets(reports)
        starts = [p.start_sample for p in packets]
        assert len(starts) == len(set(starts))
        whole = _whole(straddle_trace.ground_truth.observable("wifi"), buffer,
                       range(50_000, len(buffer), 50_000))
        assert len(whole) == 6  # two of the eight straddle a flush
        assert len(starts) == len(whole)
        assert all(any(p.start_sample < b and p.end_sample > a
                       for p in packets) for a, b in whole)

    def test_windows_shorter_than_overlap_no_duplicates(self, straddle_trace):
        """Windows shorter than the overlap, after a mid-stream flush,
        emit nothing twice and lose nothing the flush did not cut."""
        buffer = straddle_trace.buffer
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        reports = [monitor.process(buffer.slice(0, 50_000)), monitor.flush()]
        for lo in range(50_000, len(buffer), 20_000):  # < overlap windows
            reports.append(monitor.process(
                buffer.slice(lo, min(lo + 20_000, len(buffer)))))
        reports.append(monitor.flush())
        starts = [p.start_sample for p in _packets(reports)]
        assert len(starts) == len(set(starts))
        whole = _whole(straddle_trace.ground_truth.observable("wifi"), buffer,
                       [50_000])
        assert len(starts) == len(whole) == 7

    def test_empty_windows_are_harmless(self, straddle_trace):
        buffer = straddle_trace.buffer
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        reports = [monitor.process(buffer.slice(0, 0))]  # empty stream head
        for window in _windows(buffer, 300_000):
            reports.append(monitor.process(window))
            report = monitor.process(buffer.slice(
                window.end_sample, window.end_sample
            ))
            assert report.total_samples == 0
            assert report.packets == []
        reports.append(monitor.flush())
        batch = RFDumpMonitor(protocols=("wifi",)).process(buffer)
        assert [p.start_sample for p in _packets(reports)] == [
            p.start_sample for p in batch.packets
        ]

    def test_flush_is_idempotent(self, straddle_trace):
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        reports = _stream(monitor, _windows(straddle_trace.buffer, 300_000))
        n_packets = len(_packets(reports))
        n_classifications = len(_classifications(reports))
        reports += [monitor.flush(), monitor.flush()]
        assert len(_packets(reports)) == n_packets
        assert len(_classifications(reports)) == n_classifications

    def test_classification_dedup(self, straddle_trace):
        monitor = StreamingMonitor(
            RFDumpMonitor(protocols=("wifi",), demodulate=False)
        )
        reports = _stream(monitor, _windows(straddle_trace.buffer, 200_000))
        keys = [
            (c.peak.start_sample, c.detector) for c in _classifications(reports)
        ]
        assert len(keys) == len(set(keys))

    def test_empty_discontiguous_window_does_not_raise(self, straddle_trace):
        """Regression: an empty window whose start does not match the
        carried tail used to hit the gap check before the early return —
        there is nothing to analyze or resync, so it must be a no-op."""
        buffer = straddle_trace.buffer
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
        monitor.process(buffer.slice(0, 300_000))
        report = monitor.process(buffer.slice(123_457, 123_457))
        assert report.total_samples == 0
        assert report.packets == []
        # the tail survived: the contiguous continuation still stitches
        monitor.process(buffer.slice(300_000, 600_000))
        assert monitor.gaps == 0

    def test_midstream_flush_classifications_match_batch(self, straddle_trace):
        """Classifications are reported once, when their peak is final:
        with a flush after every window there are no duplicates, and on
        every peak no flush cuts they are the one-shot monitor's."""
        buffer = straddle_trace.buffer
        points = range(50_000, len(buffer), 50_000)
        monitor = StreamingMonitor(
            RFDumpMonitor(protocols=("wifi",), demodulate=False))
        reports = []
        for window in _windows(buffer, 50_000):
            reports.append(monitor.process(window))
            # incremental consumer wants results now
            reports.append(monitor.flush())
        batch = RFDumpMonitor(protocols=("wifi",), demodulate=False).process(
            buffer)

        def keys(classifications):
            return [(c.peak.start_sample, c.detector) for c in classifications
                    if not any(c.peak.start_sample <= p <= c.peak.end_sample
                               for p in points)]

        streamed = keys(_classifications(reports))
        assert len(streamed) == len(set(streamed))
        assert sorted(streamed) == sorted(keys(batch.classifications))
        assert len(streamed) >= 8  # the comparison is not vacuous


def _lines(events):
    out = []
    for event in events:
        record = json.loads(event.to_json())
        record.pop("seq")
        out.append(json.dumps(record, sort_keys=True))
    return out


def _seam_case(preset, seed, snr_db, duration, window):
    """The streamed events and the one-shot monitor's, given the floor
    the stream froze from its first window."""
    buffer = build_preset(preset, duration, snr_db=snr_db, seed=seed).render(
        ).buffer
    with make_monitor("streaming", MonitorConfig()) as stream:
        streamed = _lines(stream.events(_windows(buffer, window)))
    config = MonitorConfig(noise_floor=stream._noise_floor)
    with make_monitor("rfdump", config) as whole:
        return streamed, _lines(whole.events([buffer]))


class TestSeam:
    """Streams whose fixed-overlap predecessor emitted seam duplicates:
    a packet decoded once from the window it closed in, and again from
    the re-analysed tail (or a fragment of it from the tail's first
    sample)."""

    @pytest.mark.parametrize("preset, seed, snr_db, duration, window", [
        ("campus", 3, 20.0, 0.25, 160_000),
        # the packet at 2 351 672 was re-emitted from 2 352 000
        ("broadcast", 11, 20.0, 0.4, 160_000),
        ("broadcast", 11, 20.0, 0.25, 40_000),
        ("campus", 3, 20.0, 0.25, 40_000),
        ("campus", 11, 20.0, 0.25, 40_000),
        ("campus", 5, 8.0, 0.25, 40_000),
        ("campus", 7, 4.0, 0.25, 40_000),
        ("kitchen", 3, 20.0, 0.25, 40_000),
    ])
    def test_stream_equals_one_shot(self, preset, seed, snr_db, duration,
                                    window):
        streamed, one_shot = _seam_case(preset, seed, snr_db, duration, window)
        assert len(streamed) == len(set(streamed))
        assert streamed == one_shot

    def test_window_ending_in_silence_carries_nothing(self, straddle_trace):
        obs = Observability()
        monitor = StreamingMonitor(config=MonitorConfig(obs=obs))
        # 100k ends in the idle ether between the two ping exchanges
        _stream(monitor, _windows(straddle_trace.buffer.slice(0, 300_000),
                                  100_000))
        assert obs.registry.value("rfdump_stream_windows_total") == 3
        assert obs.registry.value("rfdump_stream_overlap_samples_total") == 0


class TestFinalisation:
    """A mid-stream flush, a stream gap and a skipped window close the
    range the seam carries the same way, exactly once."""

    @pytest.mark.parametrize("event", ["flush", "gap", "skip"])
    def test_closes_the_carried_range_once(self, straddle_trace, event):
        buffer = straddle_trace.buffer
        on_error = {"flush": None, "gap": "degrade", "skip": "skip"}[event]
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",),
                                                 on_error=on_error))
        # 50k ends inside the data frame at 46 720: its range is carried
        reports = [monitor.process(buffer.slice(0, 50_000))]
        rest = buffer.slice(50_000, len(buffer))
        if event == "flush":
            reports.append(monitor.flush())
        elif event == "gap":
            rest = buffer.slice(60_000, len(buffer))
        else:
            bad = rest.samples.copy()
            bad[100] = np.nan
            reports.append(monitor.process(
                SampleBuffer(bad[:50_000], rest.timebase, 50_000)))
            rest = rest.slice(100_000, len(buffer))
        reports += _stream(monitor, _windows(rest, 50_000))
        keys = [(p.start_sample, p.end_sample) for p in _packets(reports)]
        assert len(keys) == len(set(keys))
        # what the close decoded: the two packets before the frame, and
        # nothing of the frame it cut
        assert [k for k in keys if k[0] < 50_000] == [(8000, 43328),
                                                      (43384, 45815)]


    def test_gap_close_pass_is_the_next_reports_closed(self, straddle_trace):
        """The pass a gap forces over the carried range reaches the
        caller as the next window's ``report.closed``, with its own
        ranges and packets."""
        buffer = straddle_trace.buffer
        monitor = StreamingMonitor(RFDumpMonitor(protocols=("wifi",),
                                                 on_error="degrade"))
        # 46k ends 185 samples past the ACK: its range is still open
        first = monitor.process(buffer.slice(0, 46_000))
        report = monitor.process(buffer.slice(56_000, 106_000))
        closed = report.closed
        assert first.closed is None and first.packets == []
        assert report.passes() == [closed, report]
        assert [(p.start_sample, p.end_sample) for p in closed.packets] == [
            (8000, 43328), (43384, 45815)]
        assert [(r.start_sample, r.end_sample)
                for r in closed.ranges["wifi"]] == [(8000, 46_000)]
        assert [e.error for e in report.errors] == ["StreamGapError"]
        assert closed.errors == []


class TestBoundedCarry:
    """Activity longer than the overlap: the seam never carries more
    than ``overlap`` samples, memory stays flat, and nothing repeats."""

    WINDOW = 160_000  # 20 ms
    WINDOWS = 30

    def _buffer(self, kind):
        n = self.WINDOW * self.WINDOWS
        rng = np.random.default_rng(7)
        samples = ((rng.normal(size=n) + 1j * rng.normal(size=n))
                   * np.sqrt(0.5)).astype(np.complex64)
        if kind == "carrier":
            samples += (3.0 * np.exp(2j * np.pi * 0.01 * np.arange(n))
                        ).astype(np.complex64)
            return SampleBuffer.from_array(samples)
        scenario = Scenario(duration=n / 8e6, seed=3)
        scenario.add(MicrowaveSource(duration=n / 8e6, snr_db=15.0))
        return scenario.render().buffer

    @pytest.mark.parametrize("kind", ["carrier", "microwave"])
    def test_carry_bounded_and_memory_flat(self, kind):
        buffer = self._buffer(kind)
        obs = Observability()
        monitor = StreamingMonitor(config=MonitorConfig(obs=obs),
                                   overlap=48_000)
        carried, sizes, packets = [], [], []
        tracemalloc.start()
        try:
            for window in _windows(buffer, self.WINDOW):
                before = obs.registry.value(
                    "rfdump_stream_overlap_samples_total") or 0
                packets += _packets([monitor.process(window)])
                carried.append(obs.registry.value(
                    "rfdump_stream_overlap_samples_total") - before)
                sizes.append(tracemalloc.get_traced_memory()[0])
            packets += monitor.flush().packets
        finally:
            tracemalloc.stop()
        assert len(carried) == self.WINDOWS
        assert max(carried) <= 48_000
        # nothing accumulates: at most one stitched window (8 bytes a
        # sample) is alive between windows, early or late in the stream
        window_bytes = 8 * self.WINDOW
        assert max(sizes) < 2 * window_bytes
        assert max(sizes[-10:]) < max(sizes[:10]) + window_bytes
        starts = [(p.protocol, p.start_sample) for p in packets]
        assert len(starts) == len(set(starts))
