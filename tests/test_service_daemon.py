"""Tests for RFDumpDaemon: ingest, fan-out, gaps, metrics, equivalence."""

import socket
import threading

import pytest

from repro import MonitorConfig
from repro.core import make_monitor
from repro.errors import ServiceProtocolError
from repro.service import RFDumpDaemon, replay_trace, subscribe_events
from repro.service import protocol
from repro.service.client import fetch_metrics, window_samples
from repro.service.hub import POLICY_DISCONNECT, POLICY_DROP_NEW, POLICY_DROP_OLD
from repro.trace import write_trace
from repro.trace.io import TraceReader

WINDOW_MS = 20.0


@pytest.fixture(scope="session")
def wifi_trace_file(wifi_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "wifi.iq"
    write_trace(path, wifi_trace)
    return path


@pytest.fixture(scope="session")
def daemon_config(wifi_trace):
    return MonitorConfig(
        sample_rate=wifi_trace.sample_rate,
        center_freq=wifi_trace.center_freq,
        protocols=("wifi",),
        on_error="degrade",
    )


def _direct_events(kind, config, trace_file):
    """The stream a CLI run produces: same monitor, same windows."""
    reader = TraceReader(
        trace_file,
        window_samples=window_samples(WINDOW_MS, config.sample_rate),
    )
    with make_monitor(kind, config.replace(obs=None)) as monitor:
        return [event.to_json() for event in monitor.events(reader)]


class TestWindowSamples:
    def test_formula_and_one_sample_floor(self):
        assert window_samples(20.0, 8e6) == 160_000
        assert window_samples(1e-6, 8e6) == 1  # rounds below one sample

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
    def test_rejects_non_positive_and_non_finite(self, bad):
        # was: clamped to one-sample windows (nan/inf: a bare traceback)
        with pytest.raises(ValueError, match="window_ms must be positive"):
            window_samples(bad, 8e6)


class TestDaemonLifecycle:
    @pytest.mark.parametrize("kind", ["typo", "sharded"])
    def test_unknown_kind_rejected_before_any_socket(self, daemon_config, kind):
        # inside the pump thread this would die silently: stream_done
        # with no error, subscribers handed an empty stream
        with pytest.raises(ValueError, match="unknown monitor"):
            RFDumpDaemon(daemon_config, kind=kind)

    def test_replay_then_late_subscribe(self, daemon_config, wifi_trace_file):
        with RFDumpDaemon(daemon_config) as daemon:
            done = replay_trace(
                daemon.address, wifi_trace_file, window_ms=WINDOW_MS)
            assert done["type"] == "done"
            assert done["events"] > 0
            assert done["stream_error"] is None
            # subscribing after the replay finished still yields the
            # complete stream: backlog replay is race-free by design
            events = list(subscribe_events(daemon.address, from_seq=0))
        assert len(events) == done["events"]
        assert [e.seq for e in events] == list(range(len(events)))

    def test_live_subscriber_attached_before_replay(
            self, daemon_config, wifi_trace_file):
        with RFDumpDaemon(daemon_config) as daemon:
            collected = []

            def consume():
                collected.extend(subscribe_events(daemon.address, from_seq=0))

            thread = threading.Thread(target=consume, daemon=True)
            thread.start()
            done = replay_trace(
                daemon.address, wifi_trace_file, window_ms=WINDOW_MS)
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert [e.seq for e in collected] == list(range(done["events"]))

    def test_subscriber_disconnect_mid_stream_keeps_daemon_alive(
            self, daemon_config, wifi_trace_file):
        with RFDumpDaemon(daemon_config) as daemon:
            flaky = subscribe_events(daemon.address, from_seq=0)
            survivor = []

            def consume():
                survivor.extend(subscribe_events(daemon.address, from_seq=0))

            thread = threading.Thread(target=consume, daemon=True)
            thread.start()
            done = replay_trace(
                daemon.address, wifi_trace_file, window_ms=WINDOW_MS)
            first = next(flaky)
            assert first.seq == 0
            flaky.close()  # drop the connection mid-stream
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert [e.seq for e in survivor] == list(range(done["events"]))

    def test_second_ingest_after_finalize_rejected(
            self, daemon_config, wifi_trace_file):
        with RFDumpDaemon(daemon_config) as daemon:
            replay_trace(daemon.address, wifi_trace_file, window_ms=WINDOW_MS)
            with pytest.raises(ServiceProtocolError, match="finalized"):
                replay_trace(
                    daemon.address, wifi_trace_file, window_ms=WINDOW_MS)

    def test_sample_rate_mismatch_rejected(
            self, daemon_config, wifi_trace_file):
        config = daemon_config.replace(
            sample_rate=daemon_config.sample_rate * 2)
        with RFDumpDaemon(config) as daemon:
            with pytest.raises(ServiceProtocolError, match="sps"):
                replay_trace(
                    daemon.address, wifi_trace_file, window_ms=WINDOW_MS)

    def test_policy_mapping_reaches_hub(self, daemon_config):
        for on_error, policy in (("raise", POLICY_DISCONNECT),
                                 ("skip", POLICY_DROP_NEW),
                                 ("degrade", POLICY_DROP_OLD),
                                 (None, POLICY_DROP_OLD)):
            daemon = RFDumpDaemon(daemon_config.replace(on_error=on_error))
            assert daemon.hub.policy == policy


class TestDaemonCLIEquivalence:
    @pytest.mark.parametrize("kind", ["streaming"])
    def test_subscriber_stream_equals_cli_stream(
            self, daemon_config, wifi_trace_file, kind):
        expected = _direct_events(kind, daemon_config, wifi_trace_file)
        assert expected, "fixture trace must decode to at least one event"
        with RFDumpDaemon(daemon_config, kind=kind) as daemon:
            replay_trace(daemon.address, wifi_trace_file, window_ms=WINDOW_MS)
            actual = [
                event.to_json()
                for event in subscribe_events(daemon.address, from_seq=0)
            ]
        assert actual == expected


class TestIngestGapDetection:
    def _ingest_raw(self, daemon, windows, *, frames=None):
        """Drive the ingest protocol by hand; returns the final frame."""
        with socket.create_connection(daemon.address, timeout=30) as conn:
            rw = conn.makefile("rwb")
            protocol.send_frame(rw, {
                "type": "hello", "role": "ingest",
                "v": protocol.PROTOCOL_VERSION,
            })
            header, _ = protocol.recv_frame(rw)
            assert header["type"] == "welcome"
            for seq, buffer in windows:
                head, payload = protocol.window_frame(buffer)
                head["seq"] = seq
                protocol.send_frame(rw, head, payload)
            protocol.send_frame(rw, {"type": "end"})
            final = protocol.recv_frame(rw)
            return final[0] if final else None

    def _windows(self, trace):
        from repro.faults.harness import split_windows
        return split_windows(
            trace.buffer,
            window_samples(WINDOW_MS, trace.sample_rate),
        )

    def test_skipped_window_is_recorded(self, daemon_config, wifi_trace):
        windows = self._windows(wifi_trace)
        assert len(windows) >= 3
        # drop the second window: both the client seq and the sample
        # position jump
        fed = [(0, windows[0])] + [
            (i, w) for i, w in enumerate(windows) if i >= 2
        ]
        with RFDumpDaemon(daemon_config) as daemon:
            final = self._ingest_raw(daemon, fed)
            assert final["type"] == "done"
            errors = list(daemon.errors)
        kinds = {(e.error, e.action) for e in errors}
        assert ("SequenceGap", "forwarded") in kinds
        assert ("StreamGap", "forwarded") in kinds
        assert all(e.stage == "service" for e in errors)

    def test_contiguous_stream_records_no_gaps(
            self, daemon_config, wifi_trace):
        windows = self._windows(wifi_trace)
        with RFDumpDaemon(daemon_config) as daemon:
            final = self._ingest_raw(
                daemon, list(enumerate(windows)))
            assert final["type"] == "done"
            assert final["errors"] == 0

    @pytest.mark.parametrize("kind", ["streaming", "rfdump"])
    def test_status_lists_the_monitors_fault_records(
            self, daemon_config, wifi_trace, kind):
        """A NaN burst the monitor sanitizes under ``degrade`` is a
        record on its window's report; the daemon keeps it, not only the
        counter."""
        import numpy as np

        windows = self._windows(wifi_trace)
        burst = windows[1].samples.copy()
        burst[1_000:1_010] = np.nan
        windows[1] = windows[1].slice(windows[1].start_sample,
                                      windows[1].end_sample)
        windows[1].samples = burst
        with RFDumpDaemon(daemon_config, kind=kind) as daemon:
            final = self._ingest_raw(daemon, list(enumerate(windows)))
            assert final["type"] == "done"
            assert daemon.wait_stream_end(30)
            listed = daemon.status()["pipeline_errors"]
        assert [(e["error"], e["action"]) for e in listed] == [
            ("SampleIntegrityError", "sanitized")]
        assert listed[0]["start_sample"] <= windows[1].start_sample + 1_000
        assert listed[0]["end_sample"] >= windows[1].start_sample + 1_010

    def test_raise_policy_rejects_gapped_stream(
            self, daemon_config, wifi_trace):
        windows = self._windows(wifi_trace)
        fed = [(0, windows[0]), (2, windows[2])]  # seq 1 missing
        config = daemon_config.replace(on_error="raise")
        with RFDumpDaemon(config) as daemon:
            final = self._ingest_raw(daemon, fed)
            assert final["type"] == "error"
            # both the seq and the sample-position discontinuity fire;
            # the reported message describes the gap either way
            assert "seq" in final["message"] or "sample" in final["message"]
            assert any(e.action == "rejected" for e in daemon.errors)


class TestMetricsEndpoint:
    def test_metrics_page_and_healthz(self, daemon_config, wifi_trace_file):
        with RFDumpDaemon(daemon_config, metrics_port=0) as daemon:
            done = replay_trace(
                daemon.address, wifi_trace_file, window_ms=WINDOW_MS)
            page = fetch_metrics(daemon.metrics_address)
            assert "# TYPE rfdumpd_events_published_total counter" in page
            assert (f"rfdumpd_events_published_total {done['events']}"
                    in page)
            assert "rfdumpd_windows_ingested_total" in page
            # the monitor's own pipeline metrics share the registry
            assert "rfdump_" in page
            import json as _json
            health = _json.loads(
                fetch_metrics(daemon.metrics_address, path="/healthz"))
            assert health["stream_done"] is True
            assert health["events"] == done["events"]
            with pytest.raises(ServiceProtocolError):
                fetch_metrics(daemon.metrics_address, path="/nope")
