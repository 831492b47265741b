"""Tests for RFDumpDaemon: ingest, fan-out, gaps, session endings,
metrics, equivalence, lock order."""

import linecache
import re
import socket
import sys
import threading

import pytest

from repro import MonitorConfig
from repro.core import make_monitor
from repro.core.monitor import MONITOR_NAMES, Monitor
from repro.errors import ServiceProtocolError
from repro.obs import Observability, metrics, tracing
from repro.service import RFDumpDaemon, replay_trace, subscribe_events
from repro.service import daemon as daemon_module
from repro.service import hub as hub_module
from repro.service import protocol
from repro.service.client import fetch_metrics, window_samples
from repro.service.hub import (
    POLICY_DISCONNECT,
    POLICY_DROP_NEW,
    POLICY_DROP_OLD,
    EventHub,
)
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


def _open_ingest(daemon):
    """An ingest connection past its handshake: ``(socket, rw file)``."""
    conn = socket.create_connection(daemon.address, timeout=30)
    rw = conn.makefile("rwb")
    protocol.send_frame(rw, {
        "type": "hello", "role": "ingest", "v": protocol.PROTOCOL_VERSION,
    })
    header, _ = protocol.recv_frame(rw)
    assert header["type"] == "welcome"
    return conn, rw


def _send_window(rw, seq, buffer):
    head, payload = protocol.window_frame(buffer)
    head["seq"] = seq
    protocol.send_frame(rw, head, payload)


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


class TestSessionBuffer:
    """Every window of a session is read into one reused buffer; a
    window shorter than the buffer must see none of an earlier one."""

    SIZES = (8_000, 16_000, 4_000)

    def test_windows_of_changing_size_equal_in_process(
            self, daemon_config, wifi_trace):
        edges = [0]
        while edges[-1] < 250_000:
            edges.append(edges[-1] + self.SIZES[(len(edges) - 1) % 3])
        windows = [wifi_trace.buffer.slice(lo, hi)
                   for lo, hi in zip(edges, edges[1:])]
        with make_monitor("streaming",
                          daemon_config.replace(obs=None)) as monitor:
            expected = [event.to_json() for event in monitor.events(windows)]
        assert expected, "the windows must decode to at least one event"
        with RFDumpDaemon(daemon_config) as daemon:
            final = _ingest_raw(daemon, list(enumerate(windows)))
            actual = [event.to_json() for event
                      in subscribe_events(daemon.address, from_seq=0)]
        assert final["type"] == "done" and final["errors"] == 0
        assert actual == expected


def _ingest_raw(daemon, windows):
    """Drive the ingest protocol by hand; returns the final frame."""
    conn, rw = _open_ingest(daemon)
    with conn:
        for seq, buffer in windows:
            _send_window(rw, seq, buffer)
        protocol.send_frame(rw, {"type": "end"})
        final = protocol.recv_frame(rw)
        return final[0] if final else None


class TestZeroLengthWindow:
    """A zero-length window costs a session nothing, and a monitor that
    raises ends it the way a raise-policy fault does."""

    @pytest.mark.parametrize("kind", sorted(MONITOR_NAMES))
    def test_every_kind_ends_in_done(self, daemon_config, wifi_trace, kind):
        buffer = wifi_trace.buffer
        windows = [buffer.slice(0, 0), buffer.slice(0, 40_000),
                   buffer.slice(40_000, 40_000)]
        with RFDumpDaemon(daemon_config, kind=kind) as daemon:
            final = _ingest_raw(daemon, list(enumerate(windows)))
            errors = list(daemon.errors)
        assert final["type"] == "done" and final["stream_error"] is None
        assert errors == []

    def test_a_monitor_that_raises_ends_in_done(
            self, daemon_config, wifi_trace, monkeypatch):
        class Broken(Monitor):
            config = daemon_config

            def process(self, buffer):
                raise IndexError("boom")

        monkeypatch.setattr(daemon_module, "make_monitor",
                            lambda kind, config: Broken())
        windows = [wifi_trace.buffer.slice(0, 8_000),
                   wifi_trace.buffer.slice(8_000, 16_000)]
        with RFDumpDaemon(daemon_config) as daemon:
            final = _ingest_raw(daemon, list(enumerate(windows)))
            errors = list(daemon.errors)
        assert final["type"] == "done"
        assert final["stream_error"] == "IndexError: boom"
        assert [(e.component, e.action) for e in errors] == [
            ("monitor", "aborted")]


class TestIngestGapDetection:
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
            final = _ingest_raw(daemon, fed)
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
            final = _ingest_raw(
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
            final = _ingest_raw(daemon, list(enumerate(windows)))
            assert final["type"] == "done"
            assert daemon.wait_stream_end(30)
            listed = daemon.status()["pipeline_errors"]
        assert [(e["error"], e["action"]) for e in listed] == [
            ("SampleIntegrityError", "sanitized")]
        assert listed[0]["start_sample"] <= windows[1].start_sample + 1_000
        assert listed[0]["end_sample"] >= windows[1].start_sample + 1_010

    def test_status_lists_a_flush_pass_fault_record(
            self, daemon_config, monkeypatch):
        """A record the end-of-stream flush pass makes (a detector that
        fails only there) reaches ``pipeline_errors`` too."""
        from repro.faults import preset_windows
        from tests.test_faults_streaming import crash_after, open_ended

        windows = open_ended(preset_windows(
            "wifi", duration=0.08, window_samples=160_000, seed=3))
        crash_after(monkeypatch, len(windows))
        with RFDumpDaemon(daemon_config) as daemon:
            final = _ingest_raw(daemon, list(enumerate(windows)))
            assert final["type"] == "done"
            assert daemon.wait_stream_end(30)
            listed = daemon.status()["pipeline_errors"]
        assert [(e["stage"], e["action"]) for e in listed] == [
            ("detector", "quarantined")]

    def test_raise_policy_rejects_gapped_stream(
            self, daemon_config, wifi_trace):
        windows = self._windows(wifi_trace)
        fed = [(0, windows[0]), (2, windows[2])]  # seq 1 missing
        config = daemon_config.replace(on_error="raise")
        with RFDumpDaemon(config) as daemon:
            final = _ingest_raw(daemon, fed)
            assert final["type"] == "error"
            # both the seq and the sample-position discontinuity fire;
            # the reported message describes the gap either way
            assert "seq" in final["message"] or "sample" in final["message"]
            assert any(e.action == "rejected" for e in daemon.errors)


#: a window header whose payload never arrives in full
_CUT_WINDOW = (b'{"nbytes":8000,"nsamples":1000,"seq":1,'
               b'"start_sample":8000,"type":"window"}\n' + bytes(100))

#: what a session that ends without ``end`` was sent after its first
#: window, and the error its ``flushed`` record names
_BAD_ENDINGS = {
    "eof": (b"", "ConnectionClosed"),
    "unknown-type": (b'{"type":"bogus"}\n', "ServiceProtocolError"),
    "malformed-header": (b"not json\n", "ServiceProtocolError"),
    "implausible-nbytes": (b'{"nbytes":1099511627776,"type":"window"}\n',
                           "ServiceProtocolError"),
    "cut-payload": (_CUT_WINDOW, "ServiceProtocolError"),
}


def _daemon_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("rfdumpd-")]


class TestIngestSessionEnds:
    """Every way an ingest session ends flushes the monitor and ends the
    hub stream once; every way but ``end`` leaves one ``flushed`` record."""

    @pytest.fixture
    def first_window(self, wifi_trace):
        return wifi_trace.buffer.slice(0, 8_000)

    def _flushed(self, daemon):
        return [(e.stage, e.component, e.error) for e in daemon.errors
                if e.action == "flushed"]

    @pytest.mark.parametrize("ending", sorted(_BAD_ENDINGS))
    def test_session_cut_short_is_flushed_and_recorded(
            self, daemon_config, first_window, ending):
        sent, error = _BAD_ENDINGS[ending]
        with RFDumpDaemon(daemon_config) as daemon:
            conn, rw = _open_ingest(daemon)
            with conn:
                _send_window(rw, 0, first_window)
                rw.write(sent)
                rw.flush()
                conn.shutdown(socket.SHUT_WR)
                # was (unknown type, cut payload): no record, and the
                # stream open until stop()
                assert daemon.wait_stream_end(3)
            assert daemon.hub.ended
            assert daemon.windows_ingested == 1
            assert self._flushed(daemon) == [("service", "ingest", error)]

    def test_stop_mid_session_is_flushed_and_recorded(
            self, daemon_config, first_window):
        daemon = RFDumpDaemon(daemon_config).start()
        conn, rw = _open_ingest(daemon)
        with conn:
            _send_window(rw, 0, first_window)
            rw.write(_CUT_WINDOW)
            rw.flush()
            daemon.stop()
            assert daemon.wait_stream_end(0)
        assert daemon.hub.ended
        assert self._flushed(daemon) == [
            ("service", "ingest", "DaemonStopped")]

    def test_monitor_fault_ends_stream_and_is_reported_in_done(
            self, daemon_config, wifi_trace):
        import numpy as np

        broken = wifi_trace.buffer.slice(8_000, 16_000)
        broken.samples = broken.samples.copy()
        broken.samples[10] = np.nan
        windows = [wifi_trace.buffer.slice(0, 8_000), broken,
                   wifi_trace.buffer.slice(16_000, 24_000)]
        config = daemon_config.replace(on_error="raise")
        with RFDumpDaemon(config) as daemon:
            final = _ingest_raw(daemon, list(enumerate(windows)))
            assert final["type"] == "done"
            assert final["windows"] == 3  # read on to the end frame
            assert final["stream_error"].startswith("SampleIntegrityError")
            assert [(e.component, e.action) for e in daemon.errors] == [
                ("monitor", "aborted")]
            assert daemon.hub.ended

    def test_stop_leaves_no_daemon_thread(self, daemon_config, first_window):
        RFDumpDaemon(daemon_config).start().stop()
        assert _daemon_threads() == []

        daemon = RFDumpDaemon(daemon_config).start()
        conn, rw = _open_ingest(daemon)
        with conn:
            _send_window(rw, 0, first_window)
            rw.write(_CUT_WINDOW)
            rw.flush()
            # the connection's own thread runs the monitor
            assert _daemon_threads().count("rfdumpd-conn") == 1
            daemon.stop()
        assert _daemon_threads() == []

        with RFDumpDaemon(daemon_config) as finished:
            final = _ingest_raw(finished, [(0, first_window)])
            assert final["type"] == "done"
            assert self._flushed(finished) == []  # `end` is the clean way
        assert _daemon_threads() == []
        for each in (daemon, finished):
            assert "rfdumpd-pump" not in [t.name for t in each._threads]


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


# -- lock order ----------------------------------------------------------------
#
# The seven lock sites, by (module, attribute), and the domain DESIGN.md's
# lock table names them by.  A lock created anywhere else in these
# modules is reported as undocumented.
LOCK_DOMAINS = {
    ("repro.obs.metrics", "_lock"): "obs.registry",
    ("repro.obs.tracing", "_lock"): "obs.tracer",
    ("repro.service.hub", "_lock"): "service.hub",
    ("repro.service.hub", "_cond"): "service.subscriber",
    ("repro.service.daemon", "_errors_lock"): "daemon.errors",
    ("repro.service.daemon", "_conns_lock"): "daemon.conns",
    ("repro.service.daemon", "_state_lock"): "daemon.state",
}

#: every (held -> acquired) order the design allows; no other nesting
DOCUMENTED_EDGES = {
    ("service.hub", "service.subscriber"),
}

_ASSIGNED_ATTR = re.compile(r"self\.(\w+)\s*[:=]")


class _LockRecorder:
    """Per-thread held stacks over recording locks: which domains were
    taken, every (held -> acquired) edge, and every re-acquisition."""

    def __init__(self):
        self._mutex = threading.Lock()
        self._local = threading.local()
        self.acquired = set()
        self.edges = set()
        self.problems = []

    def _held(self):
        if not hasattr(self._local, "held"):
            self._local.held = []
        return self._local.held

    def report(self, problem):
        with self._mutex:
            self.problems.append(problem)

    def before_acquire(self, lock, blocking):
        if any(held is lock for held in self._held()):
            self.report(f"re-acquire of {lock.domain}")
            if blocking:  # proceeding would deadlock the test
                raise RuntimeError(f"re-acquire of {lock.domain}")

    def after_acquire(self, lock):
        held = self._held()
        with self._mutex:
            self.acquired.add(lock.domain)
            self.edges.update((h.domain, lock.domain) for h in held)
        held.append(lock)

    def released(self, lock):
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return

    def violations(self):
        return self.problems + [
            f"undocumented lock order {a} -> {b}"
            for a, b in sorted(self.edges - DOCUMENTED_EDGES)]


class _RecordingLock:
    def __init__(self, recorder, domain):
        self._recorder = recorder
        self.domain = domain
        self._inner = threading.Lock()

    def acquire(self, blocking=True, timeout=-1):
        self._recorder.before_acquire(self, blocking and timeout < 0)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._recorder.after_acquire(self)
        return acquired

    def release(self):
        self._inner.release()
        self._recorder.released(self)

    def locked(self):
        return self._inner.locked()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


class _RecordingCondition(_RecordingLock):
    def __init__(self, recorder, domain):
        super().__init__(recorder, domain)
        self._cond = threading.Condition(self._inner)

    def wait(self, timeout=None):
        self._recorder.released(self)
        try:
            return self._cond.wait(timeout)
        finally:
            self._recorder.after_acquire(self)

    def notify(self, n=1):
        self._cond.notify(n)

    def notify_all(self):
        self._cond.notify_all()


class _RecordingThreading:
    """``threading`` as the lock-owning modules see it under test: every
    ``Lock()`` / ``Condition()`` records, named by its creation site."""

    def __init__(self, recorder):
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(threading, name)

    def _domain(self):
        caller = sys._getframe(2)
        line = linecache.getline(caller.f_code.co_filename, caller.f_lineno)
        attr = _ASSIGNED_ATTR.search(line)
        site = (caller.f_globals["__name__"], attr and attr.group(1))
        if site not in LOCK_DOMAINS:
            self._recorder.report(f"undocumented lock created at {site}")
        return LOCK_DOMAINS.get(site, f"{site}")

    def Lock(self):
        return _RecordingLock(self._recorder, self._domain())

    def Condition(self):
        return _RecordingCondition(self._recorder, self._domain())


@pytest.fixture
def lock_recorder(monkeypatch):
    recorder = _LockRecorder()
    patched = _RecordingThreading(recorder)
    for module in (metrics, tracing, hub_module, daemon_module):
        monkeypatch.setattr(module, "threading", patched)
    return recorder


class TestLockOrder:
    def test_daemon_session_takes_only_documented_edges(
            self, lock_recorder, daemon_config, wifi_trace_file):
        config = daemon_config.replace(obs=Observability())
        with RFDumpDaemon(config) as rfdumpd:
            live = []
            thread = threading.Thread(
                target=lambda: live.extend(
                    subscribe_events(rfdumpd.address, from_seq=0)),
                daemon=True)
            thread.start()
            done = replay_trace(
                rfdumpd.address, wifi_trace_file, window_ms=WINDOW_MS)
            late = list(subscribe_events(rfdumpd.address, from_seq=0))
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert rfdumpd.status()["stream_done"]
        assert len(live) == len(late) == done["events"] > 0
        assert lock_recorder.acquired == set(LOCK_DOMAINS.values())
        assert lock_recorder.violations() == []
        assert lock_recorder.edges == DOCUMENTED_EDGES

    def test_injected_inversion_is_reported(self, lock_recorder):
        fanout = EventHub()
        queue = fanout.subscribe()
        with queue._cond:
            assert fanout.subscriber_count == 1  # takes service.hub
        assert lock_recorder.violations() == [
            "undocumented lock order service.subscriber -> service.hub"]

    def test_reacquire_is_reported(self, lock_recorder):
        fanout = EventHub()
        with fanout._lock:
            assert not fanout._lock.acquire(blocking=False)
        assert lock_recorder.violations() == ["re-acquire of service.hub"]
