"""Workload definitions and input generation for the end-to-end benchmark.

The only module the ``--seed`` reaches: it renders an emulator preset at
8 Msps, frames the IQ into ``window`` wire frames (header + payload
bytes, the exact bytes the load generator writes to the ingest socket)
and lists the emulator's ground-truth transmissions in sample units.
The daemon under test receives the framed windows and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.emulator.presets import build_preset
from repro.service import protocol
from repro.service.client import DEFAULT_WINDOW_MS, window_samples

#: the real-time line the paper's monitor must keep up with (Msamples/s)
REALTIME_MSPS = 8.0

#: ether rendered by ``--smoke`` whatever the workload asks for
SMOKE_ETHER_S = 0.1


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus how the load generator offers them."""

    name: str
    preset: str
    #: seconds of ether per pass
    ether_s: float
    window_ms: float
    #: open-loop offered rate in Msamples/s; ``None`` means closed loop
    paced_msps: Optional[float]
    #: fewest timed passes a run may report a median over
    min_reps: int
    why: str


# Ether durations are the issue's, shortened until a pass lasts about a
# second (the paced one: 1.6 s): the host's speed flips within seconds,
# and a pass is restated at the speed its two bracketing probes saw
# (hostspeed.py), which only holds while a pass is short beside a flip.
# A run then holds 12-30 passes rather than 7; see the README's budget.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "mix", "mix", 0.4, DEFAULT_WINDOW_MS, None, 7,
        "Table 3 Wi-Fi pings + Bluetooth l2ping: every layer does visible "
        "work (~70% Wi-Fi demod, ~10% each Bluetooth demod, peak and phase "
        "detection), so any optimisation should show here.",
    ),
    Workload(
        "wifi_dense", "broadcast", 0.2, DEFAULT_WINDOW_MS, None, 7,
        "Figure 7 broadcast flood: ~75% of samples forwarded, >= 90% of "
        "time in the Wi-Fi demodulator; detection, Bluetooth and service "
        "changes must show no change here.",
    ),
    Workload(
        "bt_sparse", "bluetooth", 1.0, DEFAULT_WINDOW_MS, None, 9,
        "Figure 8 l2ping: ~5% forwarded and no Wi-Fi ranges, so detection, "
        "Bluetooth demod and window framing/socket copy dominate; Wi-Fi "
        "demod changes must show no change here.",
    ),
    Workload(
        "mix_paced", "mix", 0.2, 20.0, 1.0, 4,
        "The mix IQ in 20 ms windows sent open-loop at 1.0 Msps: latency "
        "instead of throughput, per-window fixed costs and overlap "
        "re-analysis; batching or deeper queues show up as worse latency.",
    ),
)}


@dataclass
class Inputs:
    """What one workload run feeds the daemon, and what to score against."""

    workload: Workload
    sample_rate: float
    center_freq: float
    #: ``(header, payload)`` per window, ``seq`` already set
    frames: List[Tuple[dict, bytes]]
    #: observable wifi/bluetooth transmissions ending inside the trace,
    #: as ``(protocol, start_sample, end_sample)``
    truth: List[Tuple[str, int, int]]

    @property
    def nsamples(self) -> int:
        return sum(header["nsamples"] for header, _ in self.frames)

    @property
    def ether_s(self) -> float:
        return self.nsamples / self.sample_rate


def build_inputs(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    """Render the workload's trace and keep only the framed windows.

    The render buffers are dropped on return, so the process's peak RSS
    is the framed payload plus whatever the program itself allocates.
    """
    ether_s = SMOKE_ETHER_S if smoke else workload.ether_s
    trace = build_preset(
        workload.preset, ether_s, snr_db=20.0, seed=seed).render()
    buffer = trace.buffer
    step = window_samples(workload.window_ms, trace.sample_rate)
    frames = []
    for seq, start in enumerate(range(buffer.start_sample, buffer.end_sample,
                                      step)):
        header, payload = protocol.window_frame(
            buffer.slice(start, start + step))
        header["seq"] = seq
        frames.append((header, payload))
    timebase = trace.ground_truth.timebase
    truth = [
        (t.protocol, int(timebase.to_samples(t.start_time)),
         int(timebase.to_samples(t.end_time)))
        for t in trace.ground_truth.observable()
        if t.protocol in ("wifi", "bluetooth") and t.end_time <= trace.duration
    ]
    return Inputs(workload, trace.sample_rate, trace.center_freq, frames, truth)
