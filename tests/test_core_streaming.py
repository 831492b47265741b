"""Tests for the streaming monitor (the seam carried across windows)."""

import functools
import json
import socket
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import RFDumpMonitor, Scenario, WifiPingSession
from repro.core.config import MonitorConfig
from repro.core.events import PacketEvent
from repro.core.monitor import MONITOR_NAMES, make_monitor
from repro.core.peak_detector import PeakDetectorConfig
from repro.core.streaming import StreamingMonitor
from repro.dsp.samples import SampleBuffer
from repro.emulator.presets import build_preset
from repro.emulator.traffic import MicrowaveSource
from repro.faults.harness import split_windows
from repro.obs import Observability
from repro.service import RFDumpDaemon, protocol, subscribe_events


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
def kitchen():
    return build_preset("kitchen", 0.3, snr_db=20, seed=11).render().buffer


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
    return _lines_of(event.to_json() for event in events)


def _lines_of(lines):
    """Event lines with ``seq`` stripped."""
    out = []
    for line in lines:
        record = json.loads(line)
        record.pop("seq")
        out.append(json.dumps(record, sort_keys=True))
    return out


#: the partition property's sources: ``(preset, seed, snr_db, duration)``
PARTITION_SOURCES = [(name, 3, 20.0, 0.05)
                     for name in ("bluetooth", "mix", "kitchen", "campus")]
CHUNK = PeakDetectorConfig().chunk_samples


@functools.lru_cache(maxsize=None)
def _source(preset, seed, snr_db, duration=0.1):
    """A trace's buffer and its marks: the ground-truth starts and ends,
    in samples."""
    trace = build_preset(preset, duration, snr_db=snr_db,
                         seed=seed).render()
    to_samples = trace.buffer.timebase.to_samples
    marks = {int(to_samples(t)) for tx in trace.ground_truth.observable()
             for t in (tx.start_time, tx.end_time)}
    return trace.buffer, tuple(sorted(marks))


@functools.lru_cache(maxsize=None)
def _one_shot(source, noise_floor):
    """One-shot ``rfdump`` over a source, given a floor (None: its own)."""
    with make_monitor("rfdump", MonitorConfig(noise_floor=noise_floor)) as m:
        report, events = list(m.window_events([_source(*source)[0]]))[0]
        return report.noise_floor, _lines(events)


@st.composite
def _partitions(draw):
    """A source and 2-6 cuts, most within 64 samples of a ground-truth
    start or end or of a chunk edge; a window may be one sample."""
    source = draw(st.sampled_from(PARTITION_SOURCES))
    buffer, marks = _source(*source)
    n = len(buffer)
    edge = st.one_of(st.sampled_from(marks),
                     st.integers(1, n // CHUNK).map(lambda k: k * CHUNK))
    cut = st.one_of(st.builds(int.__add__, edge, st.integers(-64, 64)),
                    st.integers(1, n - 1))
    cuts = sorted(draw(st.lists(cut.filter(lambda c: 0 < c < n),
                                min_size=2, max_size=6, unique=True)))
    if draw(st.booleans()):  # a one-sample window
        cuts[-1] = cuts[0] + 1
    return source, tuple(sorted(set(cuts)))


def _stream_lines(buffer, cuts, noise_floor=None):
    """A stream cut at ``cuts``: the floor it froze and its event lines."""
    edges = (0, *cuts, len(buffer))
    windows = [buffer.slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    with make_monitor("streaming",
                      MonitorConfig(noise_floor=noise_floor)) as stream:
        lines = [event.to_json() for event in stream.events(windows)]
        return stream._noise_floor, lines


def _every(window, duration=0.05):
    return tuple(range(window, int(duration * 8e6), window))


class TestPartition:
    """Any partition of a stream emits the one-shot monitor's events,
    given the floor the stream froze."""

    # 50 ms of the streams TestSeam pinned, where the fixed-overlap seam
    # emitted duplicates, and a first window shorter than the seam
    @example(partition=(("campus", 3, 20.0, 0.05), _every(160_000)),
             estimate=True)
    @example(partition=(("broadcast", 11, 20.0, 0.05), _every(160_000)),
             estimate=True)
    @example(partition=(("broadcast", 11, 20.0, 0.05), _every(40_000)),
             estimate=True)
    @example(partition=(("campus", 3, 20.0, 0.05), _every(40_000)),
             estimate=True)
    @example(partition=(("campus", 11, 20.0, 0.05), _every(40_000)),
             estimate=True)
    @example(partition=(("campus", 5, 8.0, 0.05), _every(40_000)),
             estimate=True)
    @example(partition=(("campus", 7, 4.0, 0.05), _every(40_000)),
             estimate=True)
    @example(partition=(("kitchen", 3, 20.0, 0.05), _every(40_000)),
             estimate=True)
    @example(partition=(("mix", 3, 20.0, 0.05), (1, 2, 3, 30_000)),
             estimate=True)
    # a cut just past a frame's start, in silence since the last peak: its
    # range reaches back into the cut chunk
    @example(partition=(("campus", 3, 20.0), (100_000, 714_685)),
             estimate=False)
    # a 7.8 ms frame (736,292 to 798,371) cut past the old 6 ms overlap
    @example(partition=(("campus", 3, 20.0), (736_287, 798_360)),
             estimate=False)
    # a DIFS pair across the cut at 624,016: the claim on 623,734 waits
    @example(partition=(("kitchen", 5, 8.0),
                        (22_532, 624_016, 641_154, 646_293)), estimate=True)
    @settings(max_examples=max(200, settings.default.max_examples),
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(partition=_partitions(),
           estimate=st.sampled_from([False] * 7 + [True]))
    def test_any_partition_equals_one_shot(self, partition, estimate):
        source, cuts = partition
        buffer, _ = _source(*source)
        # most examples share the source's own floor, so its one-shot
        # pass is computed once; the rest freeze their first window's
        floor = None if estimate else _one_shot(source, None)[0]
        floor, lines = _stream_lines(buffer, cuts, floor)
        streamed = _lines_of(lines)
        assert len(streamed) == len(set(streamed))
        assert streamed == _one_shot(source, floor)[1]

    @settings(max_examples=1, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(partition=_partitions())
    def test_a_drawn_partition_through_the_daemon(self, partition):
        """The drawn windows, cut again every 5 ms, through an
        ``RFDumpDaemon``: a subscriber reads the in-process stream's
        bytes, which are the one-shot events."""
        source, cuts = partition
        buffer, _ = _source(*source)
        cuts = tuple(sorted(set(cuts) | set(_every(40_000))))
        floor, lines = _stream_lines(buffer, cuts)
        edges = (0, *cuts, len(buffer))
        with RFDumpDaemon(MonitorConfig()) as daemon:
            with socket.create_connection(daemon.address, timeout=60) as conn:
                rw = conn.makefile("rwb")
                protocol.send_frame(rw, {"type": "hello", "role": "ingest",
                                         "v": protocol.PROTOCOL_VERSION})
                protocol.recv_frame(rw)
                for seq, (lo, hi) in enumerate(zip(edges, edges[1:])):
                    header, payload = protocol.window_frame(
                        buffer.slice(lo, hi))
                    protocol.send_frame(rw, {**header, "seq": seq}, payload)
                protocol.send_frame(rw, {"type": "end"})
                assert protocol.recv_frame(rw)[0]["type"] == "done"
            served = [event.to_json() for event
                      in subscribe_events(daemon.address, from_seq=0)]
        assert served == lines
        assert _lines_of(lines) == _one_shot(source, floor)[1]

    def test_cut_in_a_frame_head_equals_one_shot(self, kitchen):
        """A cut 2 samples into a 1 Mbps frame's head (it starts at
        1,138,632): the frame is decoded from its start, not from the
        next symbol boundary as when the next window re-detected it."""
        floor, lines = _stream_lines(kitchen, (400_000, 1_138_634))
        with make_monitor("rfdump", MonitorConfig(noise_floor=floor)) as m:
            one_shot = _lines(m.events([kitchen]))
        assert _lines_of(lines) == one_shot
        assert any('"start_sample": 1138632' in line for line in one_shot)


class TestSeam:
    def test_window_ending_in_silence_carries_nothing(self, straddle_trace):
        obs = Observability()
        monitor = StreamingMonitor(config=MonitorConfig(obs=obs))
        # 100k ends in the idle ether between the two ping exchanges
        _stream(monitor, _windows(straddle_trace.buffer.slice(0, 300_000),
                                  100_000))
        assert obs.registry.value("rfdump_stream_windows_total") == 3
        assert obs.registry.value("rfdump_stream_overlap_samples_total") == 0

    def test_the_default_cap_is_20_ms_at_any_sample_rate(self):
        """At 22 Msps the cap is 440,000 samples: 1,228-byte 1 Mbps frames
        (9.9 ms) cut by 5 ms windows decode as one shot decodes them;
        a cap of 8 Msps's 160,000 samples cut them (4 events of 8)."""
        scenario = Scenario(0.06, sample_rate=22e6, seed=7)
        scenario.add(WifiPingSession(n_pings=2, interval=25e-3,
                                     rate_mbps=1.0, payload_size=1200,
                                     snr_db=20))
        trace = scenario.render()
        config = MonitorConfig(sample_rate=trace.sample_rate,
                               center_freq=trace.center_freq)
        with make_monitor("streaming", config) as stream:
            lines = _lines(stream.events(split_windows(trace.buffer,
                                                       110_000)))
            floor = stream._noise_floor
        with make_monitor("rfdump", replace(config, noise_floor=floor)) as m:
            one_shot = _lines(m.events([trace.buffer]))
        assert sum('"payload_size": 1228' in line for line in one_shot) == 4
        assert lines == one_shot
        assert stream.overlap == 440_000
        assert StreamingMonitor(config=MonitorConfig()).overlap == 160_000
        assert StreamingMonitor(config=config, overlap=48_000).overlap == 48_000


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


class TestWindowOwnership:
    """A monitor keeps nothing of a window once ``process()`` returns:
    a caller may read every window into one reused array."""

    CUTS = (400_000, 1_138_700)  # the second lies inside a frame

    def _windows(self, buffer):
        edges = (0, *self.CUTS, len(buffer))
        return [buffer.slice(lo, hi) for lo, hi in zip(edges, edges[1:])]

    def _events(self, monitor, windows, reuse):
        shared = np.empty(max(map(len, windows)), dtype=np.complex64)
        reports = []
        for window in windows:
            if reuse:
                view = shared[:len(window)]
                view[:] = window.samples
                window = SampleBuffer(view, window.timebase,
                                      window.start_sample)
            reports.append(monitor.process(window))
            shared.fill(np.nan)
        reports.append(monitor.flush())
        fs = monitor.config.sample_rate
        return [PacketEvent.from_record(r, fs, seq=i).to_json()
                for i, r in enumerate(_packets(reports))]

    @pytest.mark.parametrize("kind", MONITOR_NAMES)
    def test_reused_window_array_changes_no_event(self, kitchen, kind):
        windows = self._windows(kitchen)
        with make_monitor(kind, MonitorConfig()) as monitor:
            fresh = self._events(monitor, windows, reuse=False)
        with make_monitor(kind, MonitorConfig()) as monitor:
            reused = self._events(monitor, windows, reuse=True)
        assert fresh, "the kitchen trace must decode to events"
        assert reused == fresh

    def test_cut_inside_a_frame_carries_samples(self, kitchen):
        obs = Observability()
        monitor = StreamingMonitor(config=MonitorConfig(obs=obs))
        _stream(monitor, self._windows(kitchen))
        assert obs.registry.value("rfdump_stream_overlap_samples_total") > 0


class TestZeroLengthWindow:
    """A zero-length window is an empty pass for every monitor kind and
    policy: no exception, no event, and the stream around it unchanged
    (it used to raise ``ValueError("empty buffer")`` from ``rfdump``
    and ``IndexError`` from ``energy``)."""

    @pytest.mark.parametrize("on_error", [None, "raise", "skip", "degrade"])
    @pytest.mark.parametrize("kind", MONITOR_NAMES)
    def test_empty_pass(self, straddle_trace, kind, on_error):
        window = straddle_trace.buffer.slice(0, 50_000)
        config = MonitorConfig(protocols=("wifi",), on_error=on_error)
        with make_monitor(kind, config) as monitor:
            report = monitor.process(window.slice(0, 0))
            assert (report.total_samples, report.packets) == (0, [])
            around = [e.to_json() for e in monitor.events(
                [window, window.slice(50_000, 50_000)])]
        with make_monitor(kind, config) as monitor:
            assert around == [e.to_json() for e in monitor.events([window])]
        assert around, "the window must decode to events"
