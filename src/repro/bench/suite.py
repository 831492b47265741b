"""The default benchmark suite (self-registers on import).

Each benchmark times one hot path of the monitoring pipeline and reports
IQ samples processed per second.  Sizes come in two tiers: ``quick``
(the PR regression gate — a few hundred ms per bench) and full (the
nightly suite).  The peak-detection benchmark is the one the
vectorization work is judged by: its committed pre-vectorization
baseline was recorded with ``--impl reference``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.analysis.decoders import BluetoothStreamDecoder, WifiStreamDecoder
from repro.bench.equivalence import (
    assert_bluetooth_scan_equivalence,
    assert_dbpsk_equivalence,
    assert_detection_equivalence,
    assert_energy_equivalence,
    assert_wifi_scan_equivalence,
)
from repro.bench.registry import Benchmark, BenchContext, register_benchmark
from repro.bench.scenarios import peak_soup, preset_buffer
from repro.constants import DEFAULT_SAMPLE_RATE
from repro.core.detectors import DbpskPhaseDetector, GfskPhaseDetector
from repro.core.peak_detector import PeakDetector, PeakDetectorConfig
from repro.dsp.energy import chunked_power, energy_gate, interval_stats
from repro.dsp.fftutil import spectrogram
from repro.dsp.samples import SampleBuffer
from repro.phy.wifi import WifiModulator
from repro.phy.wifi_mac import build_data_frame


def _soup(ctx: BenchContext):
    n = 400_000 if ctx.quick else 1_600_000
    return peak_soup(n)


def _soup_config() -> PeakDetectorConfig:
    # 50-sample chunks pair with the soup's burst spacing: half the
    # chunks stay clean, keeping the percentile noise floor honest while
    # packing ~10 peaks into every 1000 samples scanned
    return PeakDetectorConfig(chunk_samples=50)


# -- peak detection (the headline microbenchmark) ---------------------------

def _peak_setup(ctx: BenchContext) -> Dict[str, object]:
    buffer = _soup(ctx)
    cfg = _soup_config()
    return {"buffer": buffer, "cfg": cfg,
            "detector": PeakDetector(cfg, impl=ctx.impl)}


def _peak_run(workload, ctx: BenchContext) -> int:
    buffer = workload["buffer"]
    # detect() is the hot path: the history feeds the timing/phase
    # detectors directly
    workload["detector"].detect(buffer)
    return len(buffer)


def _peak_equivalence(workload, ctx: BenchContext) -> Dict[str, object]:
    return assert_detection_equivalence(workload["buffer"],
                                        config=workload["cfg"])


register_benchmark(Benchmark(
    name="peak_detection",
    description="protocol-agnostic peak detection over a "
                "peak-dense trace",
    setup=_peak_setup,
    run=_peak_run,
    equivalence=_peak_equivalence,
    tags=("kernel", "detection"),
))


# -- peak detection over idle ether, floor carried ---------------------------
#
# The streaming path's case: every window after the first arrives with
# the noise floor, and on a Bluetooth-only ether ~95% of its samples are
# idle.  ``peak_detection`` above times the opposite corner (peak-dense,
# floor estimated), which the coarse pass leaves alone.  CI gates
# ``--require-speedup peak_detection_sparse:3.0`` on the same-process pair.

_STREAM_WINDOW = 1_600_000  # 200 ms at 8 Msps, the streaming default


def _peak_windows_setup(preset: str, estimate_first: bool):
    def setup(ctx: BenchContext) -> Dict[str, object]:
        buffer = preset_buffer(preset, 0.25 if ctx.quick else 1.0, seed=3)
        windows = [buffer.slice(a, min(a + _STREAM_WINDOW, buffer.end_sample))
                   for a in range(buffer.start_sample, buffer.end_sample,
                                  _STREAM_WINDOW)]
        detector = PeakDetector(impl=ctx.impl)
        floor = detector.detect(windows[0]).noise_floor
        floors = [floor] * len(windows)  # None: detect() estimates it
        floors[0] = None if estimate_first else floor
        return {"windows": windows, "detector": detector, "floors": floors}
    return setup


def _peak_windows_run(workload, ctx: BenchContext) -> int:
    total = 0
    for window, floor in zip(workload["windows"], workload["floors"]):
        workload["detector"].detect(window, floor)
        total += len(window)
    return total


def _peak_windows_equivalence(workload, ctx: BenchContext) -> Dict[str, object]:
    # both timed arms, floor estimated and carried
    peaks = 0
    for window in workload["windows"]:
        peaks += assert_detection_equivalence(window)["peaks"]
    return {"windows": len(workload["windows"]), "peaks": peaks}


register_benchmark(Benchmark(
    name="peak_detection_sparse",
    description="peak detection over the mostly idle bluetooth preset in "
                "200 ms windows with the noise floor carried from the "
                "first, as the streaming monitor runs it",
    setup=_peak_windows_setup("bluetooth", estimate_first=False),
    run=_peak_windows_run,
    equivalence=_peak_windows_equivalence,
    tags=("kernel", "detection"),
))


# -- the same over busy ether: a broadcast flood, ~75% signal, the first
# window estimating its floor (e2e ``wifi_dense``).  CI gates
# ``--require-speedup peak_detection_dense:1.6`` on the same-process pair.

register_benchmark(Benchmark(
    name="peak_detection_dense",
    description="peak detection over the broadcast preset in 200 ms "
                "windows, the first estimating the noise floor",
    setup=_peak_windows_setup("broadcast", estimate_first=True),
    run=_peak_windows_run,
    equivalence=_peak_windows_equivalence,
    tags=("kernel", "detection"),
))


# -- energy kernels ---------------------------------------------------------

def _energy_setup(ctx: BenchContext):
    buffer = _soup(ctx)
    cfg = _soup_config()
    detection = PeakDetector(cfg).detect(buffer)
    starts = (detection.history.starts - buffer.start_sample).astype(np.intp)
    ends = (detection.history.ends - buffer.start_sample).astype(np.intp)
    return {"samples": buffer.samples, "cfg": cfg, "starts": starts,
            "ends": ends, "threshold": detection.threshold}


def _energy_gate_args(workload):
    cfg = workload["cfg"]
    threshold = workload["threshold"]
    return cfg.energy_window, threshold, cfg.instantaneous_factor * threshold


def _energy_run(workload, ctx: BenchContext) -> int:
    samples = workload["samples"]
    power, _ = chunked_power(samples, workload["cfg"].chunk_samples)
    energy_gate(power, *_energy_gate_args(workload))
    if workload["starts"].size:
        interval_stats(power, workload["starts"], workload["ends"])
    return samples.size


def _energy_equivalence(workload, ctx: BenchContext) -> Dict[str, object]:
    return assert_energy_equivalence(
        workload["samples"], workload["cfg"].chunk_samples,
        *_energy_gate_args(workload))


register_benchmark(Benchmark(
    name="energy_features",
    description="the kernels under PeakDetector.detect: tiled |x|^2 with "
                "chunk averages, the tiled moving-average energy gate and "
                "batched interval statistics (redefined in PR 17: earlier "
                "results timed the whole-array forms, now its oracle)",
    setup=_energy_setup,
    run=_energy_run,
    equivalence=_energy_equivalence,
    tags=("kernel", "dsp"),
))


# -- phase detectors over pre-detected peaks ---------------------------------
#
# The per-peak half of the detection stage: peak detection runs once in
# setup and only the DBPSK + GFSK ``classify`` calls over its peaks are
# timed.  ``--impl reference`` times the pair-by-pair Barker sign-match
# walk; CI gates ``--require-speedup phase_detectors:5.0``.

def _phase_detectors_setup(ctx: BenchContext):
    scale = 0.25 if ctx.quick else 1.0
    windows = []
    for preset, duration in (("mix", 0.4), ("broadcast", 0.2)):
        buffer = preset_buffer(preset, duration * scale, seed=3)
        windows.append((buffer, PeakDetector().detect(buffer)))
    return {"windows": windows,
            "detectors": [DbpskPhaseDetector(impl=ctx.impl),
                          GfskPhaseDetector()]}


def _phase_detectors_run(workload, ctx: BenchContext) -> int:
    total = 0
    for buffer, detection in workload["windows"]:
        for detector in workload["detectors"]:
            detector.classify(detection, buffer)
        total += len(buffer)
    return total


def _phase_detectors_equivalence(workload, ctx: BenchContext) -> Dict[str, object]:
    return assert_dbpsk_equivalence(workload["windows"])


register_benchmark(Benchmark(
    name="phase_detectors",
    description="DbpskPhaseDetector + GfskPhaseDetector classify over the "
                "detected peaks of the mix and broadcast presets "
                "(peak detection excluded)",
    setup=_phase_detectors_setup,
    run=_phase_detectors_run,
    equivalence=_phase_detectors_equivalence,
    tags=("kernel", "detection"),
))


# -- FFT / spectrogram ------------------------------------------------------

def _fft_setup(ctx: BenchContext):
    n = 262_144 if ctx.quick else 1_048_576
    return {"samples": peak_soup(n).samples}


def _fft_run(workload, ctx: BenchContext) -> int:
    samples = workload["samples"]
    spectrogram(samples, fft_size=256)
    return samples.size


register_benchmark(Benchmark(
    name="fft_spectrogram",
    description="non-overlapping 256-point power spectrogram through the "
                "FFT plan cache",
    setup=_fft_setup,
    run=_fft_run,
    tags=("kernel", "dsp"),
))


# -- full pipeline over an emulator preset ----------------------------------

def _pipeline_setup(ctx: BenchContext):
    from repro.core.config import MonitorConfig
    from repro.core.monitor import make_monitor
    from repro.core.pipeline import default_detectors

    duration = 0.05 if ctx.quick else 0.25
    buffer = preset_buffer("mix", duration, seed=3)
    monitor = make_monitor("rfdump", MonitorConfig(demodulate=False))
    detectors = default_detectors(("wifi", "bluetooth"), ("timing", "phase"))
    return {"buffer": buffer, "monitor": monitor, "detectors": detectors}


def _pipeline_run(workload, ctx: BenchContext) -> int:
    buffer = workload["buffer"]
    workload["monitor"].process(buffer)
    return len(buffer)


def _pipeline_equivalence(workload, ctx: BenchContext) -> Dict[str, object]:
    # through classification and dispatch: the forwarded ranges must be
    # byte-identical between kernel implementations
    return assert_detection_equivalence(
        workload["buffer"], detectors=workload["detectors"]
    )


register_benchmark(Benchmark(
    name="pipeline_mix",
    description="full RFDump pipeline (detection, classification, dispatch) "
                "over the Wi-Fi + Bluetooth mix preset",
    setup=_pipeline_setup,
    run=_pipeline_run,
    equivalence=_pipeline_equivalence,
    tags=("pipeline",),
))


# -- Wi-Fi demodulator over pre-dispatched ranges ----------------------------
#
# The per-demodulator row of the ledger: detection and dispatch run once
# in setup, and only ``WifiStreamDecoder.scan`` over the forwarded Wi-Fi
# ranges is timed.  ``--impl reference`` times the pre-restructuring scan
# (full demodulation of every candidate start); CI gates
# ``--require-speedup demod_wifi:8.0`` on the same-process pair.

def _dispatched(preset: str, duration: float, snr_db: float, seed: int,
                window: Optional[int] = None):
    """A preset's buffer and the ranges RFDump's detection stage forwards
    from it — whole, or streamed ``window`` samples at a time (ranges cut
    at window edges, and those the carried tail dispatches again)."""
    from repro.core.config import MonitorConfig
    from repro.core.monitor import make_monitor
    from repro.faults.harness import split_windows

    buffer = preset_buffer(preset, duration, snr_db=snr_db, seed=seed)
    ranges: Dict[str, list] = {}
    with make_monitor("streaming", MonitorConfig(demodulate=False)) as stream:
        for piece in split_windows(buffer, window or len(buffer)):
            for protocol, found in stream.process(piece).ranges.items():
                ranges.setdefault(protocol, []).extend(found)
    return buffer, ranges


def dispatched_wifi_ranges(preset: str, duration: float, snr_db: float = 20.0,
                           seed: int = 3, window: Optional[int] = None):
    """The Wi-Fi ranges RFDump's detection stage forwards for a preset."""
    buffer, ranges = _dispatched(preset, duration, snr_db, seed, window)
    return [buffer.slice(r.start_sample, r.end_sample)
            for r in ranges.get("wifi", [])]


def dispatched_bluetooth_ranges(preset: str, duration: float,
                                snr_db: float = 20.0, seed: int = 3):
    """The Bluetooth ranges forwarded for a preset, each with the channel
    hint the analysis stage would pass ``scan``."""
    buffer, ranges = _dispatched(preset, duration, snr_db, seed)
    return [(buffer.slice(r.start_sample, r.end_sample), r.channel)
            for r in ranges.get("bluetooth", [])]


def capture_grid():
    """``(power_db, range)`` per case: frame A (a 428-byte 1 Mbps MPDU) with
    frame B (88 bytes), ``power_db`` stronger, starting inside A's payload.
    3 chip phases of B x 8 powers x 4 positions x A at 31, 11 and 5 dB SNR."""
    modulator = WifiModulator()
    a = modulator.modulate(build_data_frame(1, 2, bytes(range(200)) * 2), 1.0)
    rng = np.random.default_rng(36)
    cases = []
    for phase in (0.0, 1 / 3, 2 / 3):
        b = modulator.modulate(build_data_frame(3, 4, b"b" * 60), 1.0, chip_phase=phase)
        for power_db in (-3.0, 0.0, 1.0, 2.0, 3.0, 6.0, 10.0, 20.0):
            for at in (8 * us + 300 for us in (300, 1100, 1900, 2700)):
                for snr_db in (31.0, 11.0, 5.0):
                    noise = rng.normal(size=(2, a.size + 600)) * np.sqrt(0.5 / 10 ** (snr_db / 10))
                    rx = (noise[0] + 1j * noise[1]).astype(np.complex64)
                    rx[300:300 + a.size] += a
                    rx[at:at + b.size] += np.float32(10 ** (power_db / 20)) * b
                    cases.append((power_db, SampleBuffer.from_array(rx, DEFAULT_SAMPLE_RATE)))
    return cases


def _demod_wifi_setup(ctx: BenchContext):
    scale = 0.25 if ctx.quick else 1.0
    ranges = (dispatched_wifi_ranges("mix", 0.4 * scale)
              + dispatched_wifi_ranges("broadcast", 0.2 * scale))
    decoder = WifiStreamDecoder(ranges[0].sample_rate, impl=ctx.impl)
    return {"ranges": ranges, "decoder": decoder}


def _demod_wifi_run(workload, ctx: BenchContext) -> int:
    decoder = workload["decoder"]
    total = 0
    for sub in workload["ranges"]:
        decoder.scan(sub)
        total += len(sub)
    return total


def _demod_wifi_equivalence(workload, ctx: BenchContext) -> Dict[str, object]:
    """Both scans on the timed ranges and on arms the timing leaves out:
    low SNR (where a rounding difference flips a bit first), ranges cut by
    20 ms window edges, a short-preamble 2 Mbps frame, and the capture
    grid (a frame arriving inside another, which only the reference
    searches for unless its power rises)."""
    scale = 0.25 if ctx.quick else 1.0
    wave = WifiModulator().modulate(build_data_frame(1, 2, b"s" * 40), 2.0,
                                    preamble="short")
    rng = np.random.default_rng(24)
    short = (0.05 * (rng.normal(size=wave.size + 1200)
                     + 1j * rng.normal(size=wave.size + 1200))).astype(np.complex64)
    short[400:400 + wave.size] += wave
    arms = {
        "timed": workload["ranges"],
        "8dB": dispatched_wifi_ranges("mix", 0.4 * scale, snr_db=8.0),
        "4dB": dispatched_wifi_ranges("broadcast", 0.2 * scale, snr_db=4.0),
        "20ms_windows": dispatched_wifi_ranges("mix", 0.4 * scale, window=160_000),
        "short_2mbps": [SampleBuffer.from_array(short, DEFAULT_SAMPLE_RATE)],
        "capture": [buffer for _, buffer in capture_grid()],
    }
    return {arm: assert_wifi_scan_equivalence(ranges)
            for arm, ranges in arms.items()}


register_benchmark(Benchmark(
    name="demod_wifi",
    description="WifiStreamDecoder.scan over the pre-dispatched Wi-Fi ranges "
                "of the mix and broadcast presets (demodulation only)",
    setup=_demod_wifi_setup,
    run=_demod_wifi_run,
    equivalence=_demod_wifi_equivalence,
    tags=("demod", "wifi"),
))


# -- Bluetooth demodulator over pre-dispatched ranges ------------------------
#
# The same row for Bluetooth: only ``BluetoothStreamDecoder.scan`` over
# the forwarded Bluetooth ranges is timed.  Dispatch now forwards almost
# only hinted ranges that decode, so each range is scanned twice — with
# the channel hint the analysis stage would pass, and with none (all
# eight in-band channels) — to keep the worst case timed.
# ``--impl reference`` times the per-channel, per-alignment scan; CI
# gates ``--require-speedup demod_bluetooth:3.0`` on the same-process pair.

def _demod_bluetooth_setup(ctx: BenchContext):
    scale = 0.25 if ctx.quick else 1.0
    ranges = (dispatched_bluetooth_ranges("mix", 0.4 * scale)
              + dispatched_bluetooth_ranges("bluetooth", 1.0 * scale))
    decoder = BluetoothStreamDecoder(ranges[0][0].sample_rate, impl=ctx.impl)
    return {"ranges": ranges, "decoder": decoder}


def _demod_bluetooth_run(workload, ctx: BenchContext) -> int:
    decoder = workload["decoder"]
    total = 0
    for sub, hint in workload["ranges"]:
        for channel_hint in dict.fromkeys((hint, None)):
            decoder.scan(sub, channel_hint)
            total += len(sub)
    return total


def _demod_bluetooth_equivalence(workload, ctx: BenchContext) -> Dict[str, object]:
    return assert_bluetooth_scan_equivalence(workload["ranges"])


register_benchmark(Benchmark(
    name="demod_bluetooth",
    description="BluetoothStreamDecoder.scan over the pre-dispatched "
                "Bluetooth ranges of the mix and bluetooth presets, each "
                "with its channel hint and again without one "
                "(demodulation only)",
    setup=_demod_bluetooth_setup,
    run=_demod_bluetooth_run,
    equivalence=_demod_bluetooth_equivalence,
    tags=("demod", "bluetooth"),
))


# -- end-to-end window latency ------------------------------------------------
#
# The latency SLO benchmark: a full streaming run (detection, dispatch,
# demodulation) over the mix preset, accumulating each window's measured
# latency.  The ``report``
# hook turns the accumulated latencies into p50/p99 quantiles that
# ``rfbench run --max-p99 window_latency:SECONDS`` gates on in CI —
# the latency SLO counterpart of the throughput baselines.

_LATENCY_WINDOW = 160_000
_LATENCY_OVERLAP = 48_000


def _latency_setup(ctx: BenchContext):
    from repro.faults.harness import split_windows

    duration = 0.05 if ctx.quick else 0.25
    buffer = preset_buffer("mix", duration, seed=3)
    return {"windows": split_windows(buffer, _LATENCY_WINDOW),
            "latencies": []}


def _latency_run(workload, ctx: BenchContext) -> int:
    from repro.core.config import MonitorConfig
    from repro.core.streaming import StreamingMonitor

    # fresh monitor per repetition: streaming state is consumed by a run
    monitor = StreamingMonitor(config=MonitorConfig(),
                               overlap=_LATENCY_OVERLAP)
    latencies = workload["latencies"]
    total = 0
    for window in workload["windows"]:
        latencies.append(monitor.process(window).latency_seconds)
        total += len(window)
    monitor.flush()
    return total


def _latency_quantile(ordered, q: float) -> float:
    # nearest-rank on the raw per-window measurements (no bucketing)
    rank = max(1, -(-int(q * len(ordered) * 100) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def _latency_report(workload, ctx: BenchContext) -> Dict[str, object]:
    ordered = sorted(workload["latencies"])
    if not ordered:
        return {"latency": {"windows": 0, "p50": 0.0, "p99": 0.0,
                            "max": 0.0}}
    return {"latency": {
        "windows": len(ordered),
        "p50": _latency_quantile(ordered, 0.50),
        "p99": _latency_quantile(ordered, 0.99),
        "max": ordered[-1],
    }}


register_benchmark(Benchmark(
    name="window_latency",
    description="per-window end-to-end latency (p50/p99) of a streaming "
                "RFDump run over the mix preset",
    setup=_latency_setup,
    run=_latency_run,
    report=_latency_report,
    tags=("pipeline", "latency"),
))

