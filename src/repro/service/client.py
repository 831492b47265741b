"""Client side of the ``rfdumpd`` protocol: replay and subscribe.

:func:`replay_trace` plays a recorded IQ trace into a daemon's ingest
socket using the same windowing as ``rfdump`` (``--window-ms``,
default 200 ms), which is what makes a daemon subscriber's event
stream byte-identical to ``rfdump --format jsonl`` on the same trace.
:func:`subscribe_events` attaches as a subscriber and yields
:class:`~repro.core.PacketEvent` objects until end-of-stream.
"""

from __future__ import annotations

import socket
from typing import Dict, Iterator, Optional, Tuple

from repro.core.events import PacketEvent
from repro.errors import ServiceProtocolError
from repro.service import protocol
from repro.trace.io import (
    DEFAULT_WINDOW_MS,
    TraceReader,
    read_meta,
    window_samples,
)


def _handshake(rw, hello: Dict) -> Dict:
    protocol.send_frame(rw, hello)
    frame = protocol.recv_frame(rw)
    if frame is None:
        raise ServiceProtocolError("daemon closed the connection mid-handshake")
    header, _ = frame
    if header.get("type") == "error":
        raise ServiceProtocolError(
            f"daemon rejected {hello.get('role')}: {header.get('message')}")
    if header.get("type") != "welcome":
        raise ServiceProtocolError(
            f"expected welcome, got {header.get('type')!r}")
    return header


def replay_trace(address: Tuple[str, int], trace_path,
                 window_ms: float = DEFAULT_WINDOW_MS,
                 timeout: float = 30.0) -> Dict:
    """Stream a recorded trace into a daemon; returns the ``done`` frame.

    Blocks until the daemon has flushed its monitor, so on return every
    event of the stream is in the daemon's backlog and a subscriber
    with ``from_seq=0`` sees all of them.
    """
    meta = read_meta(trace_path)
    reader = TraceReader(
        trace_path,
        window_samples=window_samples(window_ms, meta.sample_rate),
    )
    with socket.create_connection(address, timeout=timeout) as conn:
        rw = conn.makefile("rwb")
        _handshake(rw, {
            "type": "hello", "role": "ingest",
            "v": protocol.PROTOCOL_VERSION,
            "sample_rate": meta.sample_rate,
            "center_freq": meta.center_freq,
        })
        seq = 0
        for buffer in reader:
            header, payload = protocol.window_frame(buffer)
            header["seq"] = seq
            protocol.send_frame(rw, header, payload)
            seq += 1
        protocol.send_frame(rw, {"type": "end", "windows": seq})
        frame = protocol.recv_frame(rw)
        if frame is None:
            raise ServiceProtocolError(
                "daemon closed the connection before acknowledging end")
        header, _ = frame
        if header.get("type") == "error":
            raise ServiceProtocolError(
                f"daemon rejected the stream: {header.get('message')}")
        if header.get("type") != "done":
            raise ServiceProtocolError(
                f"expected done, got {header.get('type')!r}")
        return header


def subscribe_events(address: Tuple[str, int],
                     from_seq: Optional[int] = 0,
                     timeout: float = 30.0) -> Iterator[PacketEvent]:
    """Attach as a subscriber and yield events until end-of-stream.

    ``from_seq=0`` (the default) replays the daemon's full backlog
    first, so subscribing after a replay finished still yields the
    complete stream; ``from_seq=None`` yields live events only.
    Raises :class:`~repro.errors.ServiceProtocolError` if the daemon
    disconnects this subscriber (slow-consumer ``bye``).
    """
    with socket.create_connection(address, timeout=timeout) as conn:
        rw = conn.makefile("rwb")
        hello: Dict = {
            "type": "hello", "role": "subscribe",
            "v": protocol.PROTOCOL_VERSION,
        }
        if from_seq is not None:
            hello["from_seq"] = from_seq
        _handshake(rw, hello)
        while True:
            frame = protocol.recv_frame(rw)
            if frame is None:
                raise ServiceProtocolError(
                    "daemon closed the connection before end-of-stream")
            header, _ = frame
            ftype = header.get("type")
            if ftype == "event":
                yield PacketEvent.from_dict(header["event"])
            elif ftype == "eos":
                return
            elif ftype == "bye":
                raise ServiceProtocolError(
                    f"daemon disconnected this subscriber: "
                    f"{header.get('reason')} "
                    f"({header.get('dropped', 0)} event(s) dropped)")
            else:
                raise ServiceProtocolError(
                    f"unexpected {ftype!r} frame on the subscriber stream")


def fetch_metrics(metrics_address: Tuple[str, int],
                  path: str = "/metrics", timeout: float = 10.0) -> str:
    """GET a page from the daemon's metrics endpoint (no deps: raw HTTP)."""
    host, port = metrics_address
    with socket.create_connection((host, port), timeout=timeout) as conn:
        request = (f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                   f"Connection: close\r\n\r\n")
        conn.sendall(request.encode("ascii"))
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    head, _, body = response.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0]
    if b" 200 " not in status + b" ":
        raise ServiceProtocolError(
            f"metrics endpoint returned {status.decode('latin-1')!r}")
    return body.decode("utf-8")
