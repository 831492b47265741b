"""Event-stream sweep: one sha1 per stream, diffable against another checkout.

Every performance PR claims "event lines byte-identical to the parent";
this is that check as a command.  Each source (every emulator preset,
plus hand-built short-preamble 2 Mbps frames the emulator does not
send, plus ``collide``: Wi-Fi pings spaced at Bluetooth slot multiples
over an l2ping session, so ACKs fuse with DH5 packets) is rendered per
(seed, SNR) arm and run through seven paths — the streaming monitor in
200, 20 and 5 ms windows, the 20 and 5 ms windows through an
``RFDumpDaemon`` over loopback (the lines a subscriber reads; at 5 ms
the seam carries most often), whole-trace ``rfdump`` and the whole-trace
naive monitor — and the canonical event lines of each stream are
hashed::

    PYTHONPATH=src python benchmarks/event_sweep.py              # {stream: sha1} as JSON
    PYTHONPATH=src python benchmarks/event_sweep.py --against DIR
    PYTHONPATH=src python benchmarks/event_sweep.py --against DIR --sources collide

``--against DIR`` runs the sweep here and again in a subprocess with
``PYTHONPATH=DIR/src`` (a ``git worktree`` or clone of the parent
commit; nothing is fetched), prints the streams whose hashes differ —
each with the event lines it lost and gained, ``seq`` stripped, and for
a gained line the ground-truth transmission it overlaps — and exits 1
if any differ.  The script uses only calls both sides have:
``build_preset``, ``Scenario``, ``make_monitor``, ``Monitor.events``,
``split_windows``, ``RFDumpDaemon``, ``subscribe_events`` and the
``protocol`` frame calls.

Without ``--lines`` every streaming stream is also checked against a
second observation path: whole-trace ``rfdump`` given the noise floor
the stream froze from its first window.  The two must emit the same
lines, ``seq`` stripped; any difference is printed — lost and gained
lines, each gained one with its ground-truth match — and the command
exits 1.  Every daemon stream must also equal its in-process twin
(``daemon20`` == ``stream20``, ``daemon5`` == ``stream5``) byte for
byte, ``seq`` included (exits 1 otherwise).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

import numpy as np

#: (seed, SNR dB): two clean arms, and two where a rounding difference
#: in a demodulator would flip a bit first
ARMS = ((3, 20.0), (11, 20.0), (5, 8.0), (7, 4.0))
#: the path kind that runs a streaming monitor behind an ``RFDumpDaemon``
DAEMON = "daemon"
#: path name -> (monitor kind, window in samples; None = the whole trace)
PATHS = {
    "stream200": ("streaming", 1_600_000),
    "stream20": ("streaming", 160_000),
    "stream5": ("streaming", 40_000),
    "daemon20": (DAEMON, 160_000),
    "daemon5": (DAEMON, 40_000),
    "rfdump": ("rfdump", None),
    "naive": ("naive", None),
}
SHORT = "short2mbps"
COLLIDE = "collide"
#: the collide source's scenarios, each its own arm: (seed, SNR dB,
#: Wi-Fi ping interval s, ping payload bytes, l2ping interval in slots).
#: Every ping interval is a multiple of the 625 us Bluetooth slot.
COLLIDE_ARMS = (
    (21, 25.0, 5e-3, 30, 2),
    (22, 20.0, 12.5e-3, 120, 4),
    (23, 16.0, 20e-3, 500, 6),
    (24, 12.0, 40e-3, 250, 8),
    (25, 18.0, 60e-3, 60, 12),
)

#: (start_sample, end_sample, protocol, kind) of one ground-truth transmission
Truth = Tuple[int, int, str, str]


def _short_preamble_buffer(duration: float, snr_db: float, seed: int):
    """Noise carrying a short-preamble 2 Mbps data frame every 5 ms."""
    from repro.constants import DEFAULT_SAMPLE_RATE
    from repro.dsp.samples import SampleBuffer
    from repro.phy.wifi import WifiModulator
    from repro.phy.wifi_mac import build_data_frame

    rng = np.random.default_rng(seed)
    n = int(duration * DEFAULT_SAMPLE_RATE)
    sigma = np.sqrt(0.5 * 10.0 ** (-snr_db / 10.0))
    samples = sigma * (rng.normal(size=n) + 1j * rng.normal(size=n))
    modulator = WifiModulator(DEFAULT_SAMPLE_RATE)
    for seq, start in enumerate(range(4_000, n, 40_000)):
        payload = rng.bytes(int(rng.integers(20, 300)))
        wave = modulator.modulate(build_data_frame(1, 2, payload, seq=seq), 2.0,
                                  chip_phase=float(rng.uniform(0, 1)),
                                  preamble="short")
        if start + wave.size <= n:
            samples[start:start + wave.size] += wave
    return SampleBuffer.from_array(samples.astype(np.complex64), DEFAULT_SAMPLE_RATE)


def _collide_scenario(duration: float, seed: int, snr_db: float,
                      interval: float, payload: int, slots: int):
    """Wi-Fi pings every ``interval`` beside l2ping every ``slots`` slots."""
    from repro.constants import BT_SLOT
    from repro.emulator.scenario import Scenario
    from repro.emulator.traffic import BluetoothL2PingSession, WifiPingSession

    scenario = Scenario(duration=duration, seed=seed)
    scenario.add(WifiPingSession(
        n_pings=int(duration / interval) + 1, payload_size=payload,
        interval=interval, snr_db=snr_db, seed=seed + 1))
    scenario.add(BluetoothL2PingSession(
        n_pings=int(duration / (slots * BT_SLOT)) + 1, interval_slots=slots,
        snr_db=snr_db))
    return scenario


def _render(source: str, duration: float, arm) -> Tuple[object, Optional[List[Truth]]]:
    """A source's buffer for one arm, with its ground truth when the
    emulator rendered it."""
    from repro.emulator.presets import build_preset

    seed, snr_db = arm[:2]
    if source == SHORT:
        return _short_preamble_buffer(duration, snr_db, seed), None
    if source == COLLIDE:
        trace = _collide_scenario(duration, *arm).render()
    else:
        trace = build_preset(source, duration, snr_db=snr_db, seed=seed).render()
    to_samples = trace.ground_truth.timebase.to_samples
    truth = [(int(to_samples(t.start_time)), int(to_samples(t.end_time)),
              t.protocol, t.kind)
             for t in trace.ground_truth.observable()]
    return trace.buffer, truth


def _expect(frame, ftype: str) -> None:
    if (frame is None or frame[0].get("type") != ftype
            or frame[0].get("stream_error")):
        raise RuntimeError(f"daemon answered {frame and frame[0]} "
                           f"where {ftype!r} was due")


def _daemon_lines(windows) -> List[str]:
    """The windows through a fresh daemon over loopback TCP: the event
    lines a subscriber reads once the ingest session is done."""
    import socket

    from repro.core.config import MonitorConfig
    from repro.service import RFDumpDaemon, protocol, subscribe_events

    with RFDumpDaemon(MonitorConfig(), kind="streaming") as daemon:
        with socket.create_connection(daemon.address, timeout=120) as conn:
            rw = conn.makefile("rwb")
            protocol.send_frame(rw, {"type": "hello", "role": "ingest",
                                     "v": protocol.PROTOCOL_VERSION})
            _expect(protocol.recv_frame(rw), "welcome")
            for seq, window in enumerate(windows):
                header, payload = protocol.window_frame(window)
                header["seq"] = seq
                protocol.send_frame(rw, header, payload)
            protocol.send_frame(rw, {"type": "end"})
            _expect(protocol.recv_frame(rw), "done")
        return [event.to_json()
                for event in subscribe_events(daemon.address, from_seq=0)]


def sweep(sources: List[str], duration: float, oracle: bool = False):
    """``({"source/seedN/SdB/path": {"sha1": ..., "events": n}},
    {stream: event lines}, {stream: ground truth or None},
    {stream: the one-shot lines given its floor})`` — the last empty
    unless ``oracle``."""
    from repro.core.config import MonitorConfig
    from repro.core.monitor import make_monitor
    from repro.faults.harness import split_windows

    streams: Dict[str, Dict[str, object]] = {}
    lines: Dict[str, List[str]] = {}
    truths: Dict[str, Optional[List[Truth]]] = {}
    one_shot: Dict[str, List[str]] = {}
    for source in sources:
        for arm in (COLLIDE_ARMS if source == COLLIDE else ARMS):
            buffer, truth = _render(source, duration, arm)
            seed, snr_db = arm[:2]
            for path, (kind, window) in PATHS.items():
                windows = split_windows(buffer, window or len(buffer))
                name = f"{source}/seed{seed}/{snr_db:g}dB/{path}"
                if kind == DAEMON:
                    found = _daemon_lines(windows)
                else:
                    with make_monitor(kind, MonitorConfig()) as monitor:
                        found = [event.to_json()
                                 for event in monitor.events(windows)]
                if oracle and kind == "streaming":
                    config = MonitorConfig(noise_floor=monitor._noise_floor)
                    with make_monitor("rfdump", config) as whole:
                        one_shot[name] = [event.to_json() for event
                                          in whole.events([buffer])]
                streams[name] = {
                    "sha1": hashlib.sha1("\n".join(found).encode()).hexdigest(),
                    "events": len(found)}
                lines[name] = found
                truths[name] = truth
    return streams, lines, truths, one_shot


def _without_seq(line: str) -> str:
    event = json.loads(line)
    event.pop("seq", None)
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def _truth_match(line: str, truth: Optional[List[Truth]]) -> str:
    """The ground-truth transmission a gained event overlaps, if any."""
    if truth is None:
        return "no ground truth for this source"
    event = json.loads(line)
    for start, end, protocol, kind in truth:
        if (protocol == event["protocol"] and start < event["end_sample"]
                and end > event["start_sample"]):
            return f"truth: {protocol} {kind} [{start}, {end})"
    return "NO ground-truth transmission overlaps it"


def _print_diff(name: str, here: List[str], there: List[str],
                truth: Optional[List[Truth]]) -> None:
    """The lines a stream lost and gained against the other checkout."""
    ours = Counter(_without_seq(line) for line in here)
    theirs = Counter(_without_seq(line) for line in there)
    for line in sorted((theirs - ours).elements()):
        print(f"  lost   {line}")
    for line in sorted((ours - theirs).elements()):
        print(f"  gained {line}  <- {_truth_match(line, truth)}")


def check_one_shot(lines: Dict[str, List[str]], one_shot: Dict[str, List[str]],
                   truths: Dict[str, Optional[List[Truth]]]) -> List[str]:
    """Print every streaming stream whose lines differ from the one-shot
    monitor's given its floor; returns their names."""
    differing = [name for name in sorted(one_shot)
                 if Counter(map(_without_seq, lines[name]))
                 != Counter(map(_without_seq, one_shot[name]))]
    for name in differing:
        print(f"ONE-SHOT DIFFERS {name}")
        _print_diff(name, lines[name], one_shot[name], truths[name])
    print(f"{len(one_shot)} streaming streams: {len(differing)} differ "
          f"from one-shot rfdump given their floor")
    return differing


def check_daemon(lines: Dict[str, List[str]]) -> List[str]:
    """Print every daemon stream whose lines, ``seq`` included, differ
    from its in-process twin's (``daemonN`` against ``streamN``); returns
    their names."""
    pairs = []
    for name in sorted(lines):
        source, path = name.rsplit("/", 1)
        if path.startswith(DAEMON):
            pairs.append((name, f"{source}/stream{path[len(DAEMON):]}"))
    differing = []
    for name, twin in pairs:
        if lines[name] != lines[twin]:
            differing.append(name)
            ours, theirs = next(
                pair for pair in zip_longest(lines[name], lines[twin])
                if pair[0] != pair[1])
            print(f"DAEMON DIFFERS {name} from {twin}\n"
                  f"  daemon {ours}\n  stream {theirs}")
    print(f"{len(pairs)} daemon streams: {len(differing)} differ from their "
          f"in-process twin")
    return differing


def main(argv=None) -> int:
    from repro.emulator.presets import PRESETS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--duration", type=float, default=0.25,
                        help="seconds of ether per trace (default 0.25: the "
                             "200 ms arm then crosses one window edge)")
    parser.add_argument("--sources", nargs="+",
                        default=[*PRESETS, SHORT, COLLIDE],
                        help="presets to sweep (default: all, plus %s and %s)"
                             % (SHORT, COLLIDE))
    parser.add_argument("--against", metavar="DIR",
                        help="also run with PYTHONPATH=DIR/src and diff the hashes")
    parser.add_argument("--lines", action="store_true",
                        help="include every stream's event lines in the JSON")
    args = parser.parse_args(argv)

    streams, lines, truths, one_shot = sweep(args.sources, args.duration,
                                             oracle=not args.lines)
    if not args.against:
        out: Dict[str, object] = {"duration": args.duration, "streams": streams}
        if args.lines:
            out["lines"] = lines
        json.dump(out, sys.stdout, indent=1, sort_keys=True)
        print()
        if args.lines:  # the other side of an --against run
            return 0
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout JSON
            unequal = check_one_shot(lines, one_shot, truths)
            return 1 if check_daemon(lines) or unequal else 0
    src = os.path.join(args.against, "src")
    if not os.path.isdir(src):
        parser.error(f"{src} is not a directory")
    other = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--duration",
         str(args.duration), "--lines", "--sources", *args.sources],
        env={**os.environ, "PYTHONPATH": src}, check=True,
        capture_output=True, text=True)
    result = json.loads(other.stdout)
    theirs, their_lines = result["streams"], result["lines"]
    differing = sorted(name for name in streams.keys() | theirs.keys()
                       if streams.get(name) != theirs.get(name))
    for name in differing:
        print(f"DIFFERS {name}: here {streams.get(name)} there {theirs.get(name)}")
        _print_diff(name, lines.get(name, []), their_lines.get(name, []),
                    truths.get(name))
    events = sum(stream["events"] for stream in streams.values())
    print(f"{len(streams)} streams, {events} events: "
          f"{len(differing)} differ from {args.against}")
    unequal = check_one_shot(lines, one_shot, truths)
    return 1 if differing or unequal or check_daemon(lines) else 0


if __name__ == "__main__":
    sys.exit(main())
