"""``rfdumpd`` — run, feed and tap the RFDump monitoring daemon.

Three subcommands cover the daemon's life:

``serve``
    Start the daemon and print a one-line JSON announcement
    (``{"host": ..., "port": ..., "metrics_port": ...}``) so scripts
    can pick up an ephemeral port.  Runs until interrupted.

``replay``
    Stream a recorded ``.iq`` trace into a running daemon's ingest
    socket, windowed exactly like ``rfdump --window-ms``; prints the
    daemon's ``done`` summary as JSON.

``subscribe``
    Attach as a subscriber and print one canonical event JSON object
    per line — byte-identical to ``rfdump --format jsonl`` on the same
    trace.  Exits when the daemon signals end-of-stream.

End-to-end smoke, three shells (or one, backgrounding the first)::

    python -m repro.tools.rfdumpd serve --port 4951 --metrics-port 4952
    python -m repro.tools.rfdumpd replay capture.iq --connect 127.0.0.1:4951
    python -m repro.tools.rfdumpd subscribe --connect 127.0.0.1:4951
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from typing import Tuple

from repro.constants import DEFAULT_CENTER_FREQ, DEFAULT_SAMPLE_RATE
from repro.core.config import MonitorConfig
from repro.core.monitor import MONITOR_NAMES
from repro.errors import RFDumpError, TraceFormatError
from repro.service.client import (
    DEFAULT_WINDOW_MS,
    replay_trace,
    subscribe_events,
)
from repro.service.daemon import DEFAULT_QUEUE_DEPTH, RFDumpDaemon
from repro.tools.rfdump import OneLineErrorParser


def _address(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a host:port address")
    return host, int(port)


def build_parser() -> argparse.ArgumentParser:
    parser = OneLineErrorParser(
        prog="rfdumpd",
        description="the RFDump monitoring daemon and its clients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="run the daemon until interrupted")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="event socket port (0 = pick a free port)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="also serve GET /metrics and /healthz here "
                            "(0 = pick a free port)")
    serve.add_argument("--monitor", default="streaming",
                       choices=MONITOR_NAMES,
                       help="make_monitor kind to run ('rfdump' runs as "
                            "'streaming': a daemon stream is stateful "
                            "across windows)")
    serve.add_argument("--protocols", default="wifi,bluetooth",
                       help="comma-separated protocol families")
    serve.add_argument("--detectors", default="timing,phase",
                       help="fast-detector kinds (timing,phase)")
    serve.add_argument("--sample-rate", type=float, default=DEFAULT_SAMPLE_RATE,
                       help="sample rate ingest clients must match")
    serve.add_argument("--center-freq", type=float, default=DEFAULT_CENTER_FREQ)
    serve.add_argument("--on-error", choices=("raise", "skip", "degrade"),
                       default=None,
                       help="fault policy; also selects the slow-consumer "
                            "policy (raise=disconnect, skip=drop newest, "
                            "degrade=drop oldest)")
    serve.add_argument("--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH,
                       help="per-subscriber bounded queue depth")

    replay = sub.add_parser(
        "replay", help="stream a recorded trace into a running daemon")
    replay.add_argument("trace", help="path to a .iq trace (with sidecar)")
    replay.add_argument("--connect", type=_address, required=True,
                        metavar="HOST:PORT")
    replay.add_argument("--window-ms", type=float, default=DEFAULT_WINDOW_MS,
                        help="ingest window size; match the rfdump run you "
                             "want byte-identical events with")

    subscribe = sub.add_parser(
        "subscribe", help="print the daemon's event stream as JSON lines")
    subscribe.add_argument("--connect", type=_address, required=True,
                           metavar="HOST:PORT")
    subscribe.add_argument("--from-seq", type=int, default=0,
                           help="replay the backlog from this event seq "
                                "(default 0 = the whole stream)")
    subscribe.add_argument("--live", action="store_true",
                           help="skip the backlog; print live events only")
    return parser


def _run_serve(args) -> int:
    # a daemon stream is stateful across windows
    kind = "streaming" if args.monitor == "rfdump" else args.monitor
    try:
        # every bad flag value surfaces here: before the announce line,
        # before any socket or thread exists
        daemon = RFDumpDaemon(
            MonitorConfig(
                sample_rate=args.sample_rate,
                center_freq=args.center_freq,
                protocols=tuple(
                    p.strip() for p in args.protocols.split(",") if p.strip()),
                kinds=tuple(
                    k.strip() for k in args.detectors.split(",") if k.strip()),
                on_error=args.on_error,
            ),
            kind=kind, host=args.host, port=args.port,
            metrics_port=args.metrics_port,
            queue_depth=args.queue_depth,
        )
    except ValueError as exc:
        print(f"rfdumpd: {exc}", file=sys.stderr)
        return 2
    with daemon:
        host, port = daemon.address
        announce = {"host": host, "port": port}
        if args.metrics_port is not None:
            announce["metrics_port"] = daemon.metrics_address[1]
        print(json.dumps(announce, sort_keys=True), flush=True)
        forever = threading.Event()
        try:
            while not forever.wait(1.0):
                pass
        except KeyboardInterrupt:
            pass
    return 0


def _run_replay(args) -> int:
    try:
        done = replay_trace(args.connect, args.trace, window_ms=args.window_ms)
    except ValueError as exc:
        # a bad --window-ms: raised before the ingest socket is opened
        print(f"rfdumpd: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(done, sort_keys=True))
    return 1 if done.get("stream_error") else 0


def _run_subscribe(args) -> int:
    from_seq = None if args.live else args.from_seq
    for event in subscribe_events(args.connect, from_seq=from_seq):
        print(event.to_json(), flush=True)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "replay":
            return _run_replay(args)
        return _run_subscribe(args)
    except (FileNotFoundError, TraceFormatError) as exc:
        print(f"rfdumpd: {exc}", file=sys.stderr)
        return 2
    except ConnectionError as exc:
        print(f"rfdumpd: connection failed: {exc}", file=sys.stderr)
        return 2
    except RFDumpError as exc:
        print(f"rfdumpd: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
