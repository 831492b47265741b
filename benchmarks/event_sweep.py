"""Event-stream sweep: one sha1 per stream, diffable against another checkout.

Every performance PR claims "event lines byte-identical to the parent";
this is that check as a command.  Each source (every emulator preset,
plus hand-built short-preamble 2 Mbps frames the emulator does not
send) is rendered per (seed, SNR) arm and run through four paths — the
streaming monitor in 200 ms and in 20 ms windows, whole-trace
``rfdump`` and the whole-trace naive monitor — and the canonical event
lines of each stream are hashed::

    PYTHONPATH=src python benchmarks/event_sweep.py              # {stream: sha1} as JSON
    PYTHONPATH=src python benchmarks/event_sweep.py --against DIR

``--against DIR`` runs the sweep here and again in a subprocess with
``PYTHONPATH=DIR/src`` (a ``git worktree`` or clone of the parent
commit; nothing is fetched), prints the streams whose hashes differ
and exits 1 if any do.  The script uses only calls both sides have:
``build_preset``, ``make_monitor``, ``Monitor.events``, ``split_windows``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, List

import numpy as np

#: (seed, SNR dB): two clean arms, and two where a rounding difference
#: in a demodulator would flip a bit first
ARMS = ((3, 20.0), (11, 20.0), (5, 8.0), (7, 4.0))
#: path name -> (monitor kind, window in samples; None = the whole trace)
PATHS = {
    "stream200": ("streaming", 1_600_000),
    "stream20": ("streaming", 160_000),
    "rfdump": ("rfdump", None),
    "naive": ("naive", None),
}
SHORT = "short2mbps"


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


def sweep(sources: List[str], duration: float) -> Dict[str, Dict[str, object]]:
    """``{"source/seedN/SdB/path": {"sha1": ..., "events": n}}``."""
    from repro.core.config import MonitorConfig
    from repro.core.monitor import make_monitor
    from repro.emulator.presets import build_preset
    from repro.faults.harness import split_windows

    streams: Dict[str, Dict[str, object]] = {}
    for source in sources:
        for seed, snr_db in ARMS:
            if source == SHORT:
                buffer = _short_preamble_buffer(duration, snr_db, seed)
            else:
                buffer = build_preset(source, duration, snr_db=snr_db,
                                      seed=seed).render().buffer
            for path, (kind, window) in PATHS.items():
                windows = split_windows(buffer, window or len(buffer))
                with make_monitor(kind, MonitorConfig()) as monitor:
                    lines = [event.to_json() for event in monitor.events(windows)]
                digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
                streams[f"{source}/seed{seed}/{snr_db:g}dB/{path}"] = {
                    "sha1": digest, "events": len(lines)}
    return streams


def main(argv=None) -> int:
    from repro.emulator.presets import PRESETS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--duration", type=float, default=0.25,
                        help="seconds of ether per trace (default 0.25: the "
                             "200 ms arm then crosses one window edge)")
    parser.add_argument("--sources", nargs="+", default=[*PRESETS, SHORT],
                        help="presets to sweep (default: all, plus %s)" % SHORT)
    parser.add_argument("--against", metavar="DIR",
                        help="also run with PYTHONPATH=DIR/src and diff the hashes")
    args = parser.parse_args(argv)

    streams = sweep(args.sources, args.duration)
    if not args.against:
        json.dump({"duration": args.duration, "streams": streams}, sys.stdout,
                  indent=1, sort_keys=True)
        print()
        return 0
    src = os.path.join(args.against, "src")
    if not os.path.isdir(src):
        parser.error(f"{src} is not a directory")
    other = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--duration",
         str(args.duration), "--sources", *args.sources],
        env={**os.environ, "PYTHONPATH": src}, check=True,
        capture_output=True, text=True)
    theirs = json.loads(other.stdout)["streams"]
    differing = sorted(name for name in streams.keys() | theirs.keys()
                       if streams.get(name) != theirs.get(name))
    for name in differing:
        print(f"DIFFERS {name}: here {streams.get(name)} there {theirs.get(name)}")
    events = sum(stream["events"] for stream in streams.values())
    print(f"{len(streams)} streams, {events} events: "
          f"{len(differing)} differ from {args.against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
