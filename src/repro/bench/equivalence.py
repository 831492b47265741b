"""Serial-vs-vectorized equivalence checks, gating every trusted timing.

A benchmark number for the vectorized detection stage is only worth
recording if the vectorized kernels still compute *the same answer* as
the reference implementation: identical peak intervals and identical
dispatch decisions (extending PR 2's deterministic-counter guarantees
to the kernel level).  The bench runner
calls :func:`assert_detection_equivalence` on the benchmark workload
before timing it; the same helper backs the tier-1 equivalence tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.decoders import BluetoothStreamDecoder, WifiStreamDecoder
from repro.core.detectors import DbpskPhaseDetector
from repro.core.dispatcher import Dispatcher
from repro.core.peak_detector import (
    PeakDetectionResult,
    PeakDetector,
    PeakDetectorConfig,
)
from repro.dsp.energy import (
    chunk_average_of,
    chunked_power,
    energy_gate,
    instant_power,
    moving_average_of,
)
from repro.dsp.samples import SampleBuffer


class EquivalenceError(AssertionError):
    """Vectorized kernels diverged from the reference implementation."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise EquivalenceError(message)


def compare_detections(reference: PeakDetectionResult,
                       vectorized: PeakDetectionResult,
                       power_rtol: float = 1e-9) -> None:
    """Raise :class:`EquivalenceError` unless the two results agree.

    Integer-valued outputs (intervals, peak indices) must match exactly;
    per-peak float statistics may differ only by summation order
    (``power_rtol``).
    """
    _check(reference.noise_floor == vectorized.noise_floor,
           "noise floor estimates differ")
    _check(reference.threshold == vectorized.threshold, "thresholds differ")
    _check(reference.total_samples == vectorized.total_samples,
           "total sample counts differ")
    _check(len(reference.history) == len(vectorized.history),
           f"peak counts differ: {len(reference.history)} reference vs "
           f"{len(vectorized.history)} vectorized")
    _check(bool(np.array_equal(reference.history.starts, vectorized.history.starts)),
           "peak interval starts differ")
    _check(bool(np.array_equal(reference.history.ends, vectorized.history.ends)),
           "peak interval ends differ")
    ref_mean = np.array([p.mean_power for p in reference.history])
    vec_mean = np.array([p.mean_power for p in vectorized.history])
    _check(bool(np.allclose(ref_mean, vec_mean, rtol=power_rtol, atol=0.0)),
           "peak mean powers differ beyond summation-order tolerance")
    ref_max = np.array([p.peak_power for p in reference.history])
    vec_max = np.array([p.peak_power for p in vectorized.history])
    _check(bool(np.array_equal(ref_max, vec_max)), "peak max powers differ")


def assert_detection_equivalence(
    buffer: SampleBuffer,
    config: Optional[PeakDetectorConfig] = None,
    detectors=None,
    power_rtol: float = 1e-9,
) -> Dict[str, object]:
    """Run both implementations over ``buffer`` and demand agreement.

    With ``detectors`` (a list of protocol detectors) the check extends
    through classification into the dispatcher: the chunk-aligned ranges
    forwarded per protocol must be byte-identical.  Both run twice: with
    the noise floor estimated (a stream's first window) and with that
    estimate carried in, as every later window gets it — the arm on
    which the vectorized gate never forms the whole-window power array.
    Returns a summary (peak/range counts) for benchmark metadata.
    """
    cfg = config or PeakDetectorConfig()
    reference = PeakDetector(cfg, impl="reference").detect(buffer)
    vectorized = PeakDetector(cfg, impl="vectorized").detect(buffer)
    compare_detections(reference, vectorized, power_rtol=power_rtol)
    carried = PeakDetector(cfg, impl="vectorized").detect(
        buffer, reference.noise_floor)
    compare_detections(reference, carried, power_rtol=power_rtol)

    summary: Dict[str, object] = {
        "peaks": len(vectorized.history),
    }
    if detectors:
        ranges = {}
        for label, detection in (("reference", reference),
                                 ("vectorized", vectorized)):
            classifications = []
            for det in detectors:
                classifications.extend(det.classify(detection, buffer))
            dispatcher = Dispatcher(chunk_samples=cfg.chunk_samples)
            ranges[label] = dispatcher.dispatch(
                classifications, buffer.end_sample, buffer.start_sample
            )
        ref_ranges, vec_ranges = ranges["reference"], ranges["vectorized"]
        _check(set(ref_ranges) == set(vec_ranges),
               "dispatched protocol sets differ")
        for protocol in ref_ranges:
            pairs = zip(ref_ranges[protocol], vec_ranges[protocol])
            _check(
                len(ref_ranges[protocol]) == len(vec_ranges[protocol])
                and all(
                    (a.start_sample, a.end_sample, a.channel, a.peak_indices,
                     a.confidence, a.channel_conflict)
                    == (b.start_sample, b.end_sample, b.channel, b.peak_indices,
                        b.confidence, b.channel_conflict)
                    for a, b in pairs
                ),
                f"dispatch decisions differ for protocol {protocol!r}",
            )
        summary["dispatched_ranges"] = {
            protocol: len(items) for protocol, items in vec_ranges.items()
        }
    return summary


def assert_energy_equivalence(samples: np.ndarray, chunk_samples: int,
                             window: int, avg_threshold: float,
                             instant_threshold: float) -> Dict[str, object]:
    """The tiled kernels under ``PeakDetector.detect`` (``chunked_power``,
    ``energy_gate``) against the whole-array forms, byte for byte."""
    whole = instant_power(samples)
    power, chunk_powers = chunked_power(samples, chunk_samples)
    _check(power.tobytes() == whole.tobytes(), "tiled |x|^2 differs")
    _check(
        chunk_powers.tobytes()
        == chunk_average_of(whole, chunk_samples).tobytes(),
        "tiled chunk powers differ",
    )
    gate = (moving_average_of(whole, window) > avg_threshold) \
        & (whole > instant_threshold)
    _check(
        energy_gate(power, window, avg_threshold, instant_threshold).tobytes()
        == gate.tobytes(),
        "tiled energy gate differs from the whole-array moving average",
    )
    return {"samples": int(whole.size), "active": int(gate.sum())}


def assert_wifi_scan_equivalence(ranges: Sequence[SampleBuffer],
                                 decode_payload: bool = True) -> Dict[str, object]:
    """Scan every range with both ``WifiStreamDecoder`` implementations
    and demand equal records, range by range.

    Records compare by value through the decoded packet (PLCP header,
    MPDU bytes, MAC fields), so equality here is equality of everything
    a ``PacketEvent`` is built from.
    """
    packets = 0
    for i, sub in enumerate(ranges):
        found = {
            impl: WifiStreamDecoder(sub.sample_rate, decode_payload=decode_payload,
                                    impl=impl).scan(sub)
            for impl in ("reference", "vectorized")
        }
        _check(
            found["reference"] == found["vectorized"],
            f"Wi-Fi scan differs on range {i} "
            f"[{sub.start_sample}, {sub.end_sample}): "
            f"{len(found['reference'])} reference vs "
            f"{len(found['vectorized'])} vectorized records",
        )
        packets += len(found["vectorized"])
    return {"ranges": len(ranges), "packets": packets}


def assert_bluetooth_scan_equivalence(
    ranges: Sequence[Tuple[SampleBuffer, Optional[int]]],
) -> Dict[str, object]:
    """Scan every ``(range, channel hint)`` with both
    ``BluetoothStreamDecoder`` implementations, with its hint and with
    none (all in-band channels), and demand equal records each time —
    decoded packet, payload bytes and recovered clock included.
    """
    packets = 0
    decoders: Dict[str, BluetoothStreamDecoder] = {}
    for i, (sub, hint) in enumerate(ranges):
        if not decoders:
            decoders = {impl: BluetoothStreamDecoder(sub.sample_rate, impl=impl)
                        for impl in ("reference", "vectorized")}
        for channel_hint in dict.fromkeys((hint, None)):
            found = {impl: decoder.scan(sub, channel_hint)
                     for impl, decoder in decoders.items()}
            _check(
                found["reference"] == found["vectorized"],
                f"Bluetooth scan differs on range {i} "
                f"[{sub.start_sample}, {sub.end_sample}) with channel hint "
                f"{channel_hint}: {len(found['reference'])} reference vs "
                f"{len(found['vectorized'])} vectorized records",
            )
        packets += len(found["vectorized"])
    return {"ranges": len(ranges), "packets": packets}


def assert_dbpsk_equivalence(
    windows: Sequence[Tuple[SampleBuffer, PeakDetectionResult]],
) -> Dict[str, object]:
    """Classify every ``(buffer, detection)`` window with both
    ``DbpskPhaseDetector`` implementations, with ``trim`` off and on,
    and demand equal :class:`Classification` lists — peak (trimmed ends
    included), confidence and ``info["barker_score"]`` compare with
    ``==``: the closed-form sign-match returns the reference's floats.
    """
    classified = 0
    for i, (buffer, detection) in enumerate(windows):
        for trim in (False, True):
            found = {
                impl: DbpskPhaseDetector(trim=trim, impl=impl).classify(
                    detection, buffer)
                for impl in ("reference", "vectorized")
            }
            _check(
                found["reference"] == found["vectorized"],
                f"DBPSK classifications differ on window {i} (trim={trim}): "
                f"{len(found['reference'])} reference vs "
                f"{len(found['vectorized'])} vectorized",
            )
            classified += len(found["vectorized"])
    return {"windows": len(windows), "classifications": classified}
