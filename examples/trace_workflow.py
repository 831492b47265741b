#!/usr/bin/env python
"""Trace recording and offline analysis — the paper's evaluation workflow.

All of RFDump's evaluation runs off recorded traces ("files that store the
streams of samples recorded by the USRP").  This example records a
scenario to a trace file, then re-reads it in streaming windows (the way
a tool would consume a multi-gigabyte capture or a live radio) and
monitors each window, carrying the noise floor across windows.

Run:  python examples/trace_workflow.py
"""

import tempfile
from pathlib import Path

from repro import RFDumpMonitor, Scenario, WifiPingSession, write_trace
from repro.analysis import render_packet_log
from repro.trace import TraceReader


def main():
    workdir = Path(tempfile.mkdtemp(prefix="rfdump-"))
    trace_path = workdir / "capture.iq"

    # -- record --------------------------------------------------------------
    scenario = Scenario(duration=0.2, seed=3)
    scenario.add(WifiPingSession(n_pings=5, snr_db=18.0, interval=35e-3))
    rendered = scenario.render()
    meta = write_trace(
        trace_path, rendered.buffer, center_freq=rendered.center_freq,
        description="802.11b unicast pings, emulator testbed",
    )
    size_mb = trace_path.stat().st_size / 1e6
    print(f"recorded {meta.nsamples} samples ({size_mb:.1f} MB) -> {trace_path}")

    # -- replay in streaming windows ------------------------------------------
    # StreamingMonitor carries a seam across windows, so packets
    # straddling a window boundary are neither lost nor double-counted.
    # Each window's report holds what became final in it; flush()
    # reports what was still open when the trace ended.
    from repro.core.streaming import StreamingMonitor

    streaming = StreamingMonitor(RFDumpMonitor(protocols=("wifi",)))
    reader = TraceReader(trace_path, window_samples=400_000)  # 50 ms windows

    packets = []
    for window in reader:
        report = streaming.process(window)
        packets.extend(p for r in report.passes() for p in r.packets)
        print(f"window @{window.start_sample:>8d}: "
              f"{len(report.peaks):2d} peaks, {len(report.packets):2d} packets, "
              f"noise floor {report.noise_floor:.3f}")
    packets.extend(streaming.flush().packets)

    print("\ndecoded packet log:")
    print(render_packet_log(packets, meta.sample_rate))

    truth = rendered.ground_truth.observable("wifi")
    print(f"\n{len(packets)} packets decoded; ground truth had "
          f"{len(truth)}")

if __name__ == "__main__":
    main()
