"""Serial-vs-vectorized kernel equivalence over realistic traces.

The vectorized detection kernels (interval merge, per-peak statistics,
peak->chunk assignment) must produce byte-identical integer outputs and
ULP-identical statistics compared to the retained ``impl="reference"``
loops — over the same seeded emulator workloads the paper's figures
use, and through classification into dispatch.  The tiled energy
kernels and the closed-form Barker sign-match claim more: the same
bits as the whole-array / pair-by-pair forms, so they compare with
``==`` and ``tobytes()``.
"""

import numpy as np
import pytest

from repro.bench.equivalence import (
    EquivalenceError,
    assert_dbpsk_equivalence,
    assert_detection_equivalence,
    compare_detections,
)
from repro.bench.scenarios import peak_soup, preset_buffer
from repro.core.peak_detector import PeakDetector, PeakDetectorConfig
from repro.core.pipeline import default_detectors
from repro.dsp.energy import (
    TILE_SAMPLES,
    chunk_average_of,
    chunked_power,
    energy_gate,
    instant_power,
    interval_stats,
    moving_average_of,
)
from repro.dsp.samples import SampleBuffer
from repro.util.timebase import Timebase


@pytest.mark.parametrize("preset,duration,seed", [
    ("mix", 0.03, 1),
    ("wifi", 0.03, 2),   # unicast ping sessions (the fig6 workload family)
    ("bluetooth", 0.06, 3),
])
def test_presets_detect_identically_through_dispatch(preset, duration, seed):
    buffer = preset_buffer(preset, duration, seed=seed)
    detectors = default_detectors(("wifi", "bluetooth"), ("timing", "phase"))
    summary = assert_detection_equivalence(buffer, detectors=detectors)
    assert summary["peaks"] > 0
    assert "dispatched_ranges" in summary


def test_peak_soup_detects_identically():
    cfg = PeakDetectorConfig(chunk_samples=50)
    summary = assert_detection_equivalence(peak_soup(100_000), config=cfg)
    # the soup exists to stress the per-peak kernels; make sure it does
    assert summary["peaks"] >= 900


def test_empty_and_all_noise_buffers_agree():
    rng = np.random.default_rng(11)
    x = np.sqrt(0.5) * (rng.normal(size=20_000) + 1j * rng.normal(size=20_000))
    quiet = SampleBuffer(x.astype(np.complex64), Timebase(20e6))
    summary = assert_detection_equivalence(quiet)
    assert summary["peaks"] == 0


def test_offset_buffer_agrees():
    # a buffer that does not start at sample zero exercises the
    # start_sample arithmetic in both chunk-metadata kernels
    buf = peak_soup(60_000)
    shifted = SampleBuffer(buf.samples, Timebase(20e6), start_sample=12_345)
    assert_detection_equivalence(shifted,
                                 config=PeakDetectorConfig(chunk_samples=50))


def test_compare_detections_flags_divergence():
    buf = peak_soup(50_000)
    cfg = PeakDetectorConfig(chunk_samples=50)
    a = PeakDetector(cfg, impl="reference").detect(buf)
    b = PeakDetector(cfg, impl="vectorized").detect(buf)
    compare_detections(a, b)  # sanity: agreement passes

    # tamper with one interval end; the comparison must notice
    b.history._ends[0] += 1  # noqa: SLF001
    b.history._invalidate()  # noqa: SLF001
    with pytest.raises(EquivalenceError):
        compare_detections(a, b)


def test_unknown_impl_rejected():
    with pytest.raises(ValueError):
        PeakDetector(impl="fortran")


# -- tiled energy kernels vs the whole-array forms ---------------------------

W = PeakDetectorConfig().energy_window
CHUNK = PeakDetectorConfig().chunk_samples
#: buffer lengths around every boundary the tiling introduces; the last
#: is one 200 ms streaming window plus its carried overlap
LENGTHS = [0, 1, W - 1, W, W + 1, TILE_SAMPLES - 1, TILE_SAMPLES,
           TILE_SAMPLES + 1, TILE_SAMPLES + W - 1, 1_648_000]


def _bursty(n, seed=5):
    """Unit-power noise with bursts, one of them straddling the first
    tile edge (and running into a final tile shorter than the window
    when ``n == TILE_SAMPLES + W - 1``)."""
    rng = np.random.default_rng(seed)
    x = np.sqrt(0.5) * (rng.normal(size=n) + 1j * rng.normal(size=n))
    for start, end in ((4_000, 9_000), (TILE_SAMPLES - 300, TILE_SAMPLES + 500),
                       (700_000, 702_000), (n - 1_000, n)):
        x[max(start, 0):end] += 4.0
    return x.astype(np.complex64)


def _power_oracle(x):
    return x.real.astype(np.float64) ** 2 + x.imag.astype(np.float64) ** 2


@pytest.mark.parametrize("n", LENGTHS)
def test_tiled_kernels_return_the_whole_array_bits(n):
    x = _bursty(n)
    oracle = _power_oracle(x)
    assert instant_power(x).tobytes() == oracle.tobytes()
    power, chunk_powers = chunked_power(x, CHUNK)
    assert power.tobytes() == oracle.tobytes()
    assert chunk_powers.tobytes() == chunk_average_of(oracle, CHUNK).tobytes()
    # thresholds at the noise level, so the mask flips thousands of times
    whole = (moving_average_of(oracle, W) > 1.0) & (oracle > 0.5)
    assert energy_gate(oracle, W, 1.0, 0.5).tobytes() == whole.tobytes()


@pytest.mark.parametrize("variant", ["complex128", "strided", "offset-view"])
def test_tiled_power_keeps_values_on_other_layouts(variant):
    base = _bursty(2 * TILE_SAMPLES + 77)
    x = {"complex128": base.astype(np.complex128) * (1 + 1e-9),
         "strided": base[::2],
         "offset-view": base[3:]}[variant]
    re, im = x.real.astype(np.float64), x.imag.astype(np.float64)
    oracle = re * re + im * im
    assert instant_power(x).tobytes() == oracle.tobytes()
    power, chunk_powers = chunked_power(x, CHUNK)
    assert power.tobytes() == oracle.tobytes()
    assert chunk_powers.tobytes() == chunk_average_of(oracle, CHUNK).tobytes()


@pytest.mark.parametrize("noise_floor", [None, 1.0],
                         ids=["estimated-floor", "carried-floor"])
@pytest.mark.parametrize("n", LENGTHS)
def test_tiled_detector_equals_reference(n, noise_floor):
    buffer = SampleBuffer(_bursty(n), Timebase(8e6))
    if n == 0 and noise_floor is None:
        for impl in ("reference", "vectorized"):
            with pytest.raises(ValueError):
                PeakDetector(impl=impl).detect(buffer)
        return
    reference = PeakDetector(impl="reference").detect(buffer, noise_floor)
    tiled = PeakDetector(impl="vectorized").detect(buffer, noise_floor)
    compare_detections(reference, tiled)
    # per-peak statistics: the same reduceat over the same power bits
    oracle = _power_oracle(buffer.samples)
    starts, ends = reference.history.starts, reference.history.ends
    _, means, maxes = interval_stats(oracle, starts, ends)
    assert [p.mean_power for p in tiled.history] == means.tolist()
    assert [p.peak_power for p in tiled.history] == maxes.tolist()
    assert chunked_power(buffer.samples, CHUNK)[1].tolist() \
        == chunk_average_of(oracle, CHUNK).tolist()
    if n > TILE_SAMPLES:
        assert any(s < TILE_SAMPLES < e for s, e in zip(starts, ends))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_poisoned_input_detects_identically(value):
    x = _bursty(TILE_SAMPLES + 5_000)
    x[1000] = value
    x[TILE_SAMPLES - 1] = value  # last sample of a tile
    buffer = SampleBuffer(x, Timebase(8e6))
    reference = PeakDetector(impl="reference").detect(buffer, 1.0)
    tiled = PeakDetector(impl="vectorized").detect(buffer, 1.0)
    assert reference.nonfinite_samples == tiled.nonfinite_samples == 2
    assert len(tiled.history) >= 2
    assert np.array_equal(reference.history.starts, tiled.history.starts)
    assert np.array_equal(reference.history.ends, tiled.history.ends)
    assert all(np.isfinite(p.mean_power) for p in tiled.history)


# -- closed-form Barker sign-match vs the pair-by-pair walk -------------------

@pytest.mark.parametrize("snr_db", [6.0, 20.0])
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("preset", ["mix", "broadcast", "bluetooth", "campus"])
def test_dbpsk_classifications_identical(preset, seed, snr_db):
    buffer = preset_buffer(preset, 0.05, snr_db=snr_db, seed=seed)
    detection = PeakDetector().detect(buffer)
    summary = assert_dbpsk_equivalence([(buffer, detection)])
    if preset != "bluetooth":
        assert summary["classifications"] > 0
