"""``RFDumpDaemon`` — the long-running monitoring service.

One daemon owns one monitor (any :func:`repro.core.make_monitor` kind)
and one event stream.  An *ingest* client streams IQ windows over the
socket protocol; its connection's thread runs them through
``Monitor.window_events()`` (keeping every pass's fault records for
``status()``) and publishes each :class:`~repro.core.PacketEvent` to
the :class:`~repro.service.hub.EventHub` before it reads the next
frame.  The hub fans out to any number of *subscriber* clients.  There
is no queue between the socket and the monitor: TCP backpressure is
the only flow control.  A ``/metrics`` HTTP endpoint exposes the run's
metrics as the same Prometheus text page ``rfdump --metrics-out``
writes.

Determinism discipline: the daemon contains **no clock reads** — not
even monotonic ones.  All waiting is done with socket timeouts,
``SubscriberQueue.get(timeout=...)`` and ``threading.Event.wait``; every
timestamp a subscriber sees is derived from sample indices by the
pipeline, so a daemon replay of a trace is byte-identical to a CLI run
of the same trace.

Ingest faults slot into the :mod:`repro.core.errorpolicy` taxonomy:

* a window whose ``seq`` or ``start_sample`` does not continue the
  stream is a *sequence gap*.  Under ``on_error="raise"`` the ingest
  session is rejected with an ``error`` frame; under every other policy
  the gap is counted, surfaced as an :class:`ErrorRecord`
  (``stage="service"``), and the window is forwarded — recovery on the
  sample stream itself (resync, loss accounting) stays the monitor's
  job, exactly as it is off-daemon.
* a session that ends any way but its ``end`` frame — EOF, a bad or
  cut frame, ``stop()`` — is flushed like one that ended cleanly and
  leaves one ``ErrorRecord(component="ingest", action="flushed")``.
* a slow subscriber hits the queue policy derived from the same knob
  (see :func:`repro.service.hub.slow_consumer_policy`).
"""

from __future__ import annotations

import json
import math
import socket
import threading
from collections import deque
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Deque, Iterator, List, Optional, Tuple

from repro.core.config import MonitorConfig
from repro.core.errorpolicy import ErrorRecord
from repro.core.monitor import MONITOR_NAMES, make_monitor
from repro.dsp.samples import SampleBuffer
from repro.errors import RFDumpError, ServiceProtocolError
from repro.obs import Observability, render_prometheus
from repro.obs.metrics import Histogram
from repro.service import protocol
from repro.service.hub import (
    DISCONNECTED,
    END_OF_STREAM,
    EventHub,
    slow_consumer_policy,
)

#: how long blocking waits sleep before re-checking the stop flag; this
#: bounds shutdown latency, it is never used to measure time
_POLL_S = 0.2

#: default bound on each subscriber's live-event queue
DEFAULT_QUEUE_DEPTH = 256


class RFDumpDaemon:
    """The rfdumpd server: ingest socket, monitor, subscriber fan-out.

    Parameters
    ----------
    config:
        Monitor configuration; ``config.on_error`` also selects the
        slow-consumer policy.  An :class:`Observability` sink is
        attached automatically if the config carries none, so
        ``/metrics`` always has something to export.
    kind:
        ``make_monitor`` kind to run behind the socket (``"streaming"``
        carries state across windows; one-shot kinds work too).
    host / port:
        Listen address; port 0 picks a free port (see :attr:`address`).
    metrics_port:
        When not ``None``, serve ``GET /metrics`` (Prometheus text
        format) and ``GET /healthz`` (JSON status) on this port
        (0 = pick free).
    """

    def __init__(self, config: Optional[MonitorConfig] = None, *,
                 kind: str = "streaming", host: str = "127.0.0.1",
                 port: int = 0, metrics_port: Optional[int] = None,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH):
        if kind not in MONITOR_NAMES:
            # here, not in the ingest session, long after start()
            raise ValueError(
                f"unknown monitor {kind!r}; known: {', '.join(MONITOR_NAMES)}"
            )
        if config is None:
            config = MonitorConfig()
        if config.obs is None:
            config = config.replace(obs=Observability())
        self.config = config
        self.obs = config.obs
        self.kind = kind
        self.errors: List[ErrorRecord] = []
        #: the newest faults the monitor handled inside windows (NaN
        #: bursts sanitized, detectors quarantined, ranges skipped)
        self.pipeline_errors: Deque[ErrorRecord] = deque(maxlen=64)
        self._errors_lock = threading.Lock()
        self.hub = EventHub(
            policy=slow_consumer_policy(config.on_error),
            queue_depth=queue_depth,
            obs=self.obs,
            on_error_record=self._record_error,
        )
        self._host = host
        self._port = port
        self._metrics_port = metrics_port
        self._ingest_claimed = False
        self._windows_ingested = 0
        self._stop = threading.Event()
        self._stream_done = threading.Event()
        self._stream_error: Optional[str] = None
        self._server: Optional[socket.socket] = None
        self._metrics_server: Optional[ThreadingHTTPServer] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._conns_lock = threading.Lock()
        # guards the cross-thread scalars and the thread roster: _threads
        # grows from the accept thread while stop() (any thread) walks it,
        # _ingest_claimed is checked-and-set by connection threads,
        # _windows_ingested and _stream_error are set by the ingest
        # session and read by /healthz
        self._state_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "RFDumpDaemon":
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._server = socket.create_server((self._host, self._port))
        self._server.settimeout(_POLL_S)
        if self._metrics_port is not None:
            self._metrics_server = _MetricsServer(
                (self._host, self._metrics_port), self)
            self._spawn(self._metrics_server.serve_forever, "metrics")
        self._spawn(self._accept_loop, "accept")
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._server is not None:
            _shut_quietly(self._server)  # wakes the accept loop at once
        if self._metrics_server is not None:
            self._metrics_server.shutdown()
        self.hub.close()
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            # wakes a handler blocked in a read, which close() alone does
            # not while the handler's makefile holds the socket open
            _shut_quietly(conn)
        with self._state_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout)

    def __enter__(self) -> "RFDumpDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) of the event socket."""
        if self._server is None:
            raise RuntimeError("daemon not started")
        return self._server.getsockname()[:2]

    @property
    def metrics_address(self) -> Tuple[str, int]:
        if self._metrics_server is None:
            raise RuntimeError("daemon has no metrics endpoint")
        return self._metrics_server.server_address[:2]

    @property
    def windows_ingested(self) -> int:
        with self._state_lock:
            return self._windows_ingested

    @property
    def stream_done(self) -> bool:
        return self._stream_done.is_set()

    @property
    def stream_error(self) -> Optional[str]:
        with self._state_lock:
            return self._stream_error

    def wait_stream_end(self, timeout: Optional[float] = None) -> bool:
        """Block until the ingest session has ended and the stream with it."""
        return self._stream_done.wait(timeout)

    def status(self) -> dict:
        """The ``/healthz`` document, also handy in tests."""
        with self._state_lock:
            windows = self._windows_ingested
            stream_error = self._stream_error
        with self._errors_lock:
            pipeline_errors = [asdict(e) for e in self.pipeline_errors]
        return {
            "kind": self.kind,
            "windows": windows,
            "events": self.hub.published,
            "subscribers": self.hub.subscriber_count,
            "stream_done": self._stream_done.is_set(),
            "stream_error": stream_error,
            "errors": len(self.errors),
            "pipeline_errors": pipeline_errors,
            "latency": self._latency_status(),
        }

    def _latency_status(self) -> Optional[dict]:
        """p50/p99 of the window-latency histogram, JSON-safe.

        None until a window has been processed.  Quantiles are the
        conservative bucket upper bounds; a latency past the last bucket
        reports None (+Inf has no JSON encoding) rather than a number.
        """
        registry = self.obs.registry
        hist = next(
            (m for m in registry.series("rfdump_window_latency_seconds")
             if isinstance(m, Histogram)), None)
        if hist is None or hist.count == 0:
            return None

        def _finite(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        return {
            "windows": hist.count,
            "p50_seconds": _finite(hist.quantile(0.50)),
            "p99_seconds": _finite(hist.quantile(0.99)),
        }

    # -- internals -------------------------------------------------------------

    def _record_error(self, record: ErrorRecord) -> None:
        with self._errors_lock:
            self.errors.append(record)

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(
            target=target, name=f"rfdumpd-{name}", daemon=True)
        thread.start()
        with self._state_lock:
            self._threads.append(thread)

    def _track(self, conn: socket.socket) -> None:
        with self._conns_lock:
            self._conns.append(conn)

    def _untrack(self, conn: socket.socket) -> None:
        with self._conns_lock:
            if conn in self._conns:
                self._conns.remove(conn)

    # the accept loop and per-connection handlers

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by stop()
            self._track(conn)
            self._spawn(lambda c=conn: self._serve_conn(c), "conn")

    def _serve_conn(self, conn: socket.socket) -> None:
        rw = conn.makefile("rwb")
        try:
            frame = protocol.recv_frame(rw)
            if frame is None:
                return
            header, _payload = frame
            if header.get("type") != "hello":
                protocol.send_frame(rw, {
                    "type": "error",
                    "message": "handshake must start with a hello frame",
                })
                return
            try:
                protocol.check_version(header)
            except ServiceProtocolError as exc:
                protocol.send_frame(rw, {"type": "error", "message": str(exc)})
                return
            role = header.get("role")
            if role == "ingest":
                self._serve_ingest(rw, header)
            elif role == "subscribe":
                self._serve_subscriber(conn, rw, header)
            else:
                protocol.send_frame(rw, {
                    "type": "error",
                    "message": f"unknown role {role!r}",
                })
        except (OSError, ValueError, ServiceProtocolError):
            # peer vanished or spoke garbage; its session dies with it
            pass
        finally:
            self._untrack(conn)
            _close_quietly(conn)

    def _serve_ingest(self, rw, hello: dict) -> None:
        rate = hello.get("sample_rate")
        if rate is not None and float(rate) != self.config.sample_rate:
            protocol.send_frame(rw, {
                "type": "error",
                "message": (
                    f"daemon monitors at {self.config.sample_rate} sps, "
                    f"client offers {rate}"
                ),
            })
            return
        refusal = self._claim_ingest()
        if refusal is not None:
            protocol.send_frame(rw, {"type": "error", "message": refusal})
            return
        ended_by_end = False
        rejection: Optional[str] = None

        def windows() -> Iterator[SampleBuffer]:
            # one frame read per window, after the previous window's
            # events are published; every ending but `end` is recorded
            nonlocal ended_by_end, rejection
            expected_seq = 0
            expected_sample: Optional[int] = None
            stopped = ("DaemonStopped", "the daemon stopped mid-session")
            ending = stopped
            try:
                while not self._stop.is_set():
                    frame = protocol.recv_frame(rw)
                    if frame is None:
                        ending = ("ConnectionClosed",
                                  "ingest stream ended without an end frame")
                        break
                    header, payload = frame
                    ftype = header.get("type")
                    if ftype == "end":
                        ended_by_end = True
                        return
                    if ftype != "window":
                        raise ServiceProtocolError(
                            f"unexpected {ftype!r} frame during ingest")
                    buffer = protocol.decode_window(
                        header, payload, self.config.sample_rate)
                    gap = self._check_continuity(
                        header, buffer, expected_seq, expected_sample)
                    if gap is not None and self.config.on_error == "raise":
                        rejection = gap
                        ending = ("IngestRejected", gap)
                        break
                    expected_seq = int(header.get("seq", expected_seq)) + 1
                    expected_sample = buffer.start_sample + len(buffer)
                    self._count_window()
                    yield buffer
            except (OSError, ValueError, ServiceProtocolError) as exc:
                ending = (type(exc).__name__, str(exc))
            if self._stop.is_set():  # stop() cuts the connection too
                ending = stopped
            self._record_error(ErrorRecord(
                stage="service", component="ingest", error=ending[0],
                message=ending[1], action="flushed"))

        frames = windows()
        try:
            with make_monitor(self.kind, self.config) as monitor:
                protocol.send_frame(rw, {
                    "type": "welcome", "role": "ingest",
                    "v": protocol.PROTOCOL_VERSION, "kind": self.kind,
                })
                try:
                    for report, events in monitor.window_events(frames):
                        errors = [e for p in report.passes()
                                  for e in p.errors]
                        if errors:
                            with self._errors_lock:
                                self.pipeline_errors.extend(errors)
                        for event in events:
                            self.hub.publish(event)
                except RFDumpError as exc:
                    # the monitor's own policy said raise: the stream is
                    # over, and the session reads on to its end to say so
                    self._abort_stream(exc)
                    for _ in frames:
                        pass
        finally:
            self.hub.end_stream()
            self._stream_done.set()
        if rejection is not None:
            protocol.send_frame(rw, {"type": "error", "message": rejection})
        elif ended_by_end:
            protocol.send_frame(rw, {
                "type": "done",
                "windows": self.windows_ingested,
                "events": self.hub.published,
                "errors": len(self.errors),
                "stream_error": self.stream_error,
            })

    def _abort_stream(self, exc: RFDumpError) -> None:
        with self._state_lock:
            self._stream_error = f"{type(exc).__name__}: {exc}"
        self._record_error(ErrorRecord.from_exception(
            "service", "monitor", exc, action="aborted"))
        self.obs.counter(
            "rfdumpd_stream_failures_total",
            help="event streams terminated by a pipeline fault",
        ).inc()

    def _claim_ingest(self) -> Optional[str]:
        """Claim the daemon's one ingest session; the refusal, if not.

        Finalized beats claimed: ``_stream_done`` is set before the
        session's ``done`` frame is sent, so a client reconnecting right
        after ``done`` sees "finalized", never a racy "already active".
        """
        with self._state_lock:
            if self._stream_done.is_set():
                return "event stream already finalized"
            if self._ingest_claimed:
                return "an ingest session is already active"
            self._ingest_claimed = True
        return None

    def _check_continuity(self, header: dict, buffer, expected_seq: int,
                          expected_sample: Optional[int]) -> Optional[str]:
        """Record any ingest discontinuity; returns its description."""
        seq = int(header.get("seq", expected_seq))
        gap: Optional[str] = None
        if seq != expected_seq:
            gap = f"window seq {seq} arrived where {expected_seq} was expected"
            self.obs.counter(
                "rfdumpd_ingest_seq_gaps_total",
                help="ingest windows with a discontinuous sequence number",
            ).inc()
            self._record_error(ErrorRecord(
                stage="service", component="ingest", error="SequenceGap",
                message=gap,
                action="rejected" if self.config.on_error == "raise"
                else "forwarded",
                start_sample=buffer.start_sample,
                end_sample=buffer.start_sample + len(buffer),
            ))
        if (expected_sample is not None
                and buffer.start_sample != expected_sample):
            gap = (f"window starts at sample {buffer.start_sample}, "
                   f"stream position is {expected_sample}")
            self.obs.counter(
                "rfdumpd_ingest_sample_gaps_total",
                help="ingest windows discontiguous in sample position",
            ).inc()
            self._record_error(ErrorRecord(
                stage="service", component="ingest", error="StreamGap",
                message=gap,
                action="rejected" if self.config.on_error == "raise"
                else "forwarded",
                start_sample=buffer.start_sample,
                end_sample=buffer.start_sample + len(buffer),
            ))
        return gap

    def _count_window(self) -> None:
        with self._state_lock:
            self._windows_ingested += 1
        self.obs.counter(
            "rfdumpd_windows_ingested_total",
            help="IQ windows accepted over the ingest socket",
        ).inc()

    def _serve_subscriber(self, conn: socket.socket, rw, hello: dict) -> None:
        from_seq = hello.get("from_seq")
        if from_seq is not None:
            from_seq = int(from_seq)
        sub = self.hub.subscribe(from_seq=from_seq, transport=conn)
        protocol.send_frame(rw, {
            "type": "welcome", "role": "subscribe",
            "v": protocol.PROTOCOL_VERSION, "subscriber": sub.sid,
        })
        try:
            while not self._stop.is_set():
                item = sub.get(timeout=_POLL_S)
                if item is None:
                    continue
                if item is END_OF_STREAM:
                    protocol.send_frame(rw, {
                        "type": "eos",
                        "events": self.hub.published,
                        "delivered": sub.delivered,
                        "dropped": sub.dropped,
                    })
                    break
                if item is DISCONNECTED:
                    protocol.send_frame(rw, {
                        "type": "bye", "reason": "slow-consumer",
                        "dropped": sub.dropped,
                    })
                    break
                protocol.send_frame(rw, {
                    "type": "event", "event": item.to_dict(),
                })
        finally:
            self.hub.unsubscribe(sub)


# -- the /metrics endpoint -----------------------------------------------------


class _MetricsServer(ThreadingHTTPServer):
    """HTTP server exposing the daemon's metrics registry."""

    daemon_threads = True

    def __init__(self, address, rfdumpd: RFDumpDaemon):
        super().__init__(address, _MetricsHandler)
        self.rfdumpd = rfdumpd


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 (http.server naming contract)
        rfdumpd = self.server.rfdumpd
        if self.path == "/metrics":
            body = render_prometheus(rfdumpd.obs.registry).encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif self.path in ("/", "/healthz"):
            body = (json.dumps(rfdumpd.status(), sort_keys=True) + "\n").encode()
            ctype = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics or /healthz)")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass  # the daemon's stdout is not an access log


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:
        pass


def _shut_quietly(sock: socket.socket) -> None:
    """Shut ``sock`` down, waking any thread blocked on it, and close it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    _close_quietly(sock)
