"""Tests for the PacketEvent contract and Monitor.events()."""

import dataclasses
import importlib
import json

import pytest

from repro import MonitorConfig, RFDumpMonitor
from repro.bench.equivalence import assert_detection_equivalence
from repro.core import make_monitor
from repro.core.events import (
    EVENT_SCHEMA_VERSION,
    PacketEvent,
    PacketMeta,
    events_from_records,
    read_events,
)
from repro.core.metadata import PeakHistory
from repro.core.peak_detector import PeakDetectionResult, PeakDetector
from repro.core.streaming import StreamingMonitor
from repro.emulator.presets import build_preset
from repro.faults.harness import split_windows
from repro.service import RFDumpDaemon
from repro.tools import rfdump, rfdumpd


def _config(trace, **overrides) -> MonitorConfig:
    return MonitorConfig(
        sample_rate=trace.sample_rate,
        center_freq=trace.center_freq,
        protocols=("wifi",),
        **overrides,
    )


def _windows(trace, n=4):
    return split_windows(trace.buffer, max(len(trace.buffer) // n, 1))


class TestPacketEventContract:
    def _event(self, seq=0):
        meta = PacketMeta(
            timestamp=0.25, sample_rate=8e6, start_sample=2_000_000,
            end_sample=2_000_800, channel=6, snr_db=19.5,
        )
        return PacketEvent(
            seq=seq, protocol="wifi", decoder="wifi", ok=True,
            payload_size=42, summary="icmp echo", meta=meta,
        )

    def test_frozen(self):
        event = self._event()
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.seq = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.meta.snr_db = 0.0

    def test_wire_form_is_canonical(self):
        line = self._event().to_json()
        payload = json.loads(line)
        assert payload["v"] == EVENT_SCHEMA_VERSION
        # sorted keys + compact separators: equality is line equality
        assert line == json.dumps(payload, sort_keys=True,
                                  separators=(",", ":"))
        assert "\n" not in line

    def test_round_trip(self):
        event = self._event(seq=3)
        assert PacketEvent.from_json(event.to_json()) == event

    def test_unknown_schema_version_rejected(self):
        payload = self._event().to_dict()
        payload["v"] = EVENT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            PacketEvent.from_dict(payload)

    def test_meta_duration(self):
        meta = self._event().meta
        assert meta.duration == pytest.approx(800 / 8e6)

    def test_key_excludes_seq(self):
        assert self._event(seq=0).key() == self._event(seq=99).key()

    def test_read_events_skips_blank_lines(self):
        lines = [self._event(0).to_json(), "", self._event(1).to_json(), "  "]
        events = list(read_events(lines))
        assert [e.seq for e in events] == [0, 1]


class TestEventsFromRecords:
    def test_matches_report_packets(self, wifi_report, wifi_trace):
        events = events_from_records(
            wifi_report.packets, wifi_trace.sample_rate)
        assert len(events) == len(wifi_report.packets)
        assert [e.seq for e in events] == list(range(len(events)))
        for event, record in zip(events, wifi_report.packets):
            assert event.protocol == record.protocol
            assert event.payload_size == record.payload_size
            assert event.meta.start_sample == record.start_sample
            assert event.meta.timestamp == pytest.approx(
                record.start_sample / wifi_trace.sample_rate)

    def test_start_seq_offset(self, wifi_report, wifi_trace):
        """seq always starts at 0: there is no offset to pass."""
        events = events_from_records(
            wifi_report.packets, wifi_trace.sample_rate)
        assert events[0].seq == 0
        with pytest.raises(TypeError):
            events_from_records(
                wifi_report.packets, wifi_trace.sample_rate, start_seq=10)

    def test_rf_metadata_carried(self, wifi_report, wifi_trace):
        events = events_from_records(
            wifi_report.packets, wifi_trace.sample_rate)
        assert all(e.meta.snr_db is not None for e in events)
        assert all(e.meta.rssi_db is not None for e in events)


class TestMonitorEvents:
    """Every monitor family exposes the same events() contract."""

    def test_one_shot_monitor(self, wifi_trace):
        with make_monitor("rfdump", _config(wifi_trace)) as monitor:
            events = list(monitor.events([wifi_trace.buffer]))
        assert events
        assert [e.seq for e in events] == list(range(len(events)))
        assert all(e.protocol == "wifi" for e in events)

    def test_streaming_matches_accumulated_packets(self, wifi_trace):
        with make_monitor("streaming", _config(wifi_trace)) as monitor:
            events = list(monitor.events(_windows(wifi_trace)))
        with make_monitor("streaming", _config(wifi_trace)) as monitor:
            reports = [monitor.process(window)
                       for window in _windows(wifi_trace)]
            reports.append(monitor.flush())
        packets = [p for report in reports for r in report.passes()
                   for p in r.packets]
        expected = events_from_records(packets, wifi_trace.sample_rate)
        assert [e.to_json() for e in events] == [e.to_json() for e in expected]

    def test_streaming_events_are_incremental(self, wifi_trace):
        """events() yields as packets become final, not in one burst
        after the final flush."""
        windows = _windows(wifi_trace, n=8)
        fed = 0

        def feed():
            nonlocal fed
            for window in windows:
                fed += 1
                yield window

        emitted_mid_stream = False
        events = []
        with make_monitor("streaming", _config(wifi_trace)) as monitor:
            for event in monitor.events(feed()):
                events.append(event)
                if fed < len(windows):
                    emitted_mid_stream = True
        assert len(events) >= 2
        assert emitted_mid_stream

    @pytest.mark.parametrize("preset", ["mix", "broadcast", "bluetooth"])
    def test_every_driver_emits_the_same_bytes(self, preset):
        """rfdump and streaming are one pipeline behind two drivers: the
        same IQ yields the same canonical event lines through both."""
        trace = build_preset(preset, 0.2, seed=3).render()
        config = MonitorConfig(sample_rate=trace.sample_rate,
                               center_freq=trace.center_freq)
        lines = {}
        for kind in ("rfdump", "streaming"):
            with make_monitor(kind, config) as monitor:
                lines[kind] = [
                    e.to_json() for e in monitor.events([trace.buffer])]
        assert lines["rfdump"]
        assert lines["streaming"] == lines["rfdump"]

    def test_removed_names_fail_loudly(self, wifi_trace, tmp_path, capsys):
        for kind in ("sharded", "flowgraph", "naive+energy"):
            with pytest.raises(ValueError, match="unknown monitor"):
                make_monitor(kind)
        for removed in ("shards", "granularity", "parallel_granularity",
                        "parallel_backend", "workers", "backend", "timeout",
                        "deadline_ms", "decode_payload"):
            with pytest.raises(TypeError):
                MonitorConfig(**{removed: 2})
            with pytest.raises(TypeError):
                RFDumpMonitor(**{removed: 2})
        with pytest.raises(ImportError):
            import repro.flowgraph  # noqa: F401
        with pytest.raises(TypeError):
            StreamingMonitor(config=MonitorConfig(), on_error="degrade")
        # reports are the only channel: no accumulators, no run()
        streaming = StreamingMonitor(config=MonitorConfig())
        for name in ("packets", "classifications", "clock", "run"):
            assert not hasattr(streaming, name), name
        # spans are opened where the work runs, never replayed
        from repro.obs import NULL, Observability, Tracer

        for obs in (Tracer(), Observability(), NULL):
            assert not hasattr(obs, "record")
        # a daemon refuses the kind before it owns a socket or a thread
        with pytest.raises(ValueError, match="unknown monitor"):
            RFDumpDaemon(MonitorConfig(), kind="flowgraph")
        # the ingest queue is gone: TCP backpressure is the flow control
        with pytest.raises(TypeError):
            RFDumpDaemon(MonitorConfig(), ingest_depth=8)
        # so are the analysis pools, the deadline layer and the scanning
        # monitor
        for module in ("analysis_stage", "deadline", "parallelism",
                       "scanning"):
            with pytest.raises(ImportError):
                importlib.import_module(f"repro.core.{module}")
        for flags in (["--ingest-depth", "4"], ["--workers", "2"],
                      ["--deadline-ms", "100"]):
            with pytest.raises(SystemExit) as exc:
                rfdumpd.main(["serve", *flags])
            assert exc.value.code == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("rfdumpd: ")
        for flags in (["--workers", "2"], ["--parallel-backend", "process"],
                      ["--deadline-ms", "100"]):
            with pytest.raises(SystemExit) as exc:
                rfdump.main([str(tmp_path / "absent.iq"), *flags])
            assert exc.value.code == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("rfdump: unrecognized arguments")
        # and the CLI before it opens the trace: one line, exit 2
        with pytest.raises(SystemExit) as exc:
            rfdump.main([str(tmp_path / "absent.iq"), "--monitor", "flowgraph"])
        assert exc.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("rfdump: ")
        # what nothing read: the per-chunk records, two detectors no
        # monitor built, and the helpers no tool called
        for module in ("collision", "phase_psk"):
            with pytest.raises(ImportError):
                importlib.import_module(f"repro.core.detectors.{module}")
        for module, names in (
            ("repro", ("AccuracyReport",)),
            ("repro.core", ("ChunkMetadata",)),
            ("repro.core.metadata", ("ChunkMetadata",)),
            ("repro.core.detectors",
             ("CollisionDetector", "PskConstellationDetector")),
            ("repro.dsp", ("instantaneous_phase", "phase_second_derivative",
                           "phase_histogram", "estimate_cfo",
                           "count_constellation_points", "repeat_to_rate")),
            ("repro.dsp.phase",
             ("instantaneous_phase", "phase_second_derivative",
              "phase_histogram", "estimate_cfo", "remove_cfo",
              "count_constellation_points")),
            ("repro.dsp.filters", ("raised_cosine_edges",)),
            ("repro.dsp.resample", ("repeat_to_rate",)),
            ("repro.phy.dsss", ("correlate_symbols",)),
            ("repro.analysis", ("AccuracyReport",)),
            ("repro.analysis.stats", ("AccuracyReport",)),
            ("repro.analysis.export", ("packets_to_csv", "report_to_json",
                                       "accuracy_to_json", "_packet_rows")),
        ):
            imported = importlib.import_module(module)
            for name in names:
                assert not hasattr(imported, name), f"{module}.{name}"
        assert not hasattr(PeakHistory, "starts_near")
        for name in ("_chunk_metadata_vectorized", "_chunk_metadata_reference"):
            assert not hasattr(PeakDetector, name), name
        detection = PeakDetectionResult(PeakHistory(8e6), 1.0, 2.5, 0)
        assert not hasattr(detection, "chunks")
        for removed in ("chunks", "chunk_builder"):
            with pytest.raises(TypeError):
                PeakDetectionResult(PeakHistory(8e6), 1.0, 2.5, 0,
                                    **{removed: []})
        summary = assert_detection_equivalence(wifi_trace.buffer)
        assert "chunks" not in summary and summary["peaks"] > 0

    def test_naive_monitor_events(self, wifi_trace):
        with make_monitor("naive", _config(wifi_trace)) as monitor:
            events = list(monitor.events(_windows(wifi_trace, n=2)))
        assert all(isinstance(e, PacketEvent) for e in events)
        assert [e.seq for e in events] == list(range(len(events)))

    def test_start_seq_threads_through(self, wifi_trace):
        """No monitor takes a seq offset: every stream numbers from 0."""
        with make_monitor("rfdump", _config(wifi_trace)) as monitor:
            events = list(monitor.events([wifi_trace.buffer]))
        assert events[0].seq == 0
        for kind in ("rfdump", "streaming"):
            with make_monitor(kind, _config(wifi_trace)) as monitor:
                with pytest.raises(TypeError):
                    monitor.events([wifi_trace.buffer], start_seq=5)
                with pytest.raises(TypeError):
                    monitor.window_events([wifi_trace.buffer], start_seq=5)
