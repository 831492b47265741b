"""A first window's noise floor, certified from the coarse pass.

With the floor still to be estimated, ``PeakDetector.detect`` takes the
10th percentile of the chunk powers from the coarse pass's float32
block sums, recomputing exactly only the chunks within a rounding
margin of the percentile's order statistics
(``repro.dsp.energy.certified_floor``).  The oracle is the floor as it
was taken before: ``floor_of`` over every chunk of ``chunked_power``.
Every comparison is ``==`` on the float, not a tolerance.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import preset_buffer
from repro.core.peak_detector import PeakDetector, PeakDetectorConfig
from repro.dsp import energy
from repro.dsp.energy import (
    FLOOR_AMBIGUOUS_MAX,
    block_sums,
    certified_floor,
    chunked_power,
    floor_of,
)
from repro.dsp.samples import SampleBuffer

CFG = PeakDetectorConfig()
W, CHUNK = CFG.energy_window, CFG.chunk_samples


def _oracle(x, chunk=CHUNK):
    return floor_of(chunked_power(x, chunk)[1])


def _certified(x, window=W, chunk=CHUNK):
    return certified_floor(x, block_sums(x, window), window, chunk)


def _noise(n, seed):
    rng = np.random.default_rng(seed)
    return np.sqrt(0.5) * (rng.normal(size=n) + 1j * rng.normal(size=n))


@st.composite
def _windows(draw):
    """Noise with bursts up to 60 dB over it; the same few chunks tiled
    (exact ties), or one chunk tiled with a sample a few float32 steps
    off in each copy (near ties: closer than the block sums resolve);
    constant; all-zero — at any length."""
    kind = draw(st.sampled_from(["bursts", "ties", "near-ties", "constant",
                                 "zero"]))
    n = draw(st.one_of(st.integers(1, 2 * CHUNK),
                       st.integers(2 * CHUNK, 40_000)))
    seed = draw(st.integers(0, 2**16))
    if kind == "bursts":
        x = _noise(n, seed)
        for _ in range(draw(st.integers(0, 6))):
            start = draw(st.integers(0, n - 1))
            length = draw(st.integers(1, 3_000))
            db = draw(st.floats(0.0, 60.0))
            x[start:start + length] *= 10 ** (db / 20)
    elif kind == "ties":
        period = CHUNK * draw(st.integers(1, 4))
        x = np.resize(_noise(period, seed), n)
    elif kind == "near-ties":
        n = min(n, FLOOR_AMBIGUOUS_MAX * CHUNK)
        x = np.resize(_noise(CHUNK, seed).astype(np.complex64), n)
        rng = np.random.default_rng(seed)
        at = np.arange(0, n, CHUNK) + rng.integers(0, CHUNK, -(-n // CHUNK))
        at = np.minimum(at, n - 1)
        steps = rng.integers(-4, 5, at.size).astype(np.float32)
        x.real[at] += steps * np.spacing(x.real[at])
    elif kind == "constant":
        x = np.full(n, draw(st.sampled_from([1.0, 0.3 - 0.7j, 1e3])))
    else:
        x = np.zeros(n)
    return kind, x.astype(np.complex64)


@settings(max_examples=300, deadline=None)
@given(window=_windows())
def test_certified_floor_is_the_whole_window_floor_bit_for_bit(window):
    kind, x = window
    want = _oracle(x)
    got = _certified(x)
    if got is not None:
        assert got == want
    if kind == "zero" or (kind == "constant" and x.size > FLOOR_AMBIGUOUS_MAX * CHUNK):
        assert got is None  # nothing to certify against / the cap
    if kind == "bursts" and x.size >= 2 * CHUNK:
        assert got is not None
    # and the detector, whichever path it takes
    assert PeakDetector().detect(SampleBuffer.from_array(x, 8e6)).noise_floor == want


@pytest.mark.parametrize("window,chunk", [(1, 200), (7, 50), (20, 200),
                                          (64, 256), (200, 200), (21, 200)])
def test_other_windows_and_chunks(window, chunk):
    x = _noise(30_011, seed=window)
    x[5_000:9_000] *= 30
    x = x.astype(np.complex64)
    got = _certified(x, window, chunk)
    if chunk % energy.coarse_block(window):
        assert got is None  # a chunk is not a whole number of rows
    else:
        assert got == _oracle(x, chunk)
    cfg = PeakDetectorConfig(energy_window=window, chunk_samples=chunk)
    buffer = SampleBuffer.from_array(x, 8e6)
    assert PeakDetector(cfg).detect(buffer).noise_floor == _oracle(x, chunk)


def test_the_cap_and_other_refusals():
    constant = np.full(FLOOR_AMBIGUOUS_MAX * CHUNK + 1, 0.5 + 0.5j, np.complex64)
    assert _certified(constant) is None
    assert _certified(constant[: 60 * CHUNK]) == _oracle(constant[: 60 * CHUNK])
    x = _noise(20_000, 1).astype(np.complex64)
    assert _certified((x * 1e-18).astype(np.complex64)) is None  # float32 tiny
    assert _certified(x[::2]) is None                             # strided
    for at in (100, x.size - 2):  # in a row; in the ragged tail
        bad = x[:-1].copy()
        bad[at] = np.nan
        assert _certified(bad) is None
        got = PeakDetector().detect(SampleBuffer.from_array(bad, 8e6))
        assert got.nonfinite_samples == 1
        assert got.noise_floor == floor_of(chunked_power(bad, CHUNK)[1])


def test_few_chunks_are_recomputed_and_no_window_power(monkeypatch):
    """On emulator windows the floor comes from the block sums and a few
    exact chunks: ``chunked_power`` reads 2-4 of 4 000 chunks."""
    read = []
    monkeypatch.setattr(energy, "chunked_power",
                        lambda x, chunk: read.append(x.size) or chunked_power(x, chunk))
    monkeypatch.setattr("repro.core.peak_detector.chunked_power",
                        energy.chunked_power)
    for preset in ("bluetooth", "mix", "broadcast", "kitchen"):
        buffer = preset_buffer(preset, 0.1, seed=11)
        del read[:]
        got = PeakDetector().detect(buffer)
        assert 2 * CHUNK <= sum(read) <= 4 * CHUNK
        assert got.noise_floor == _oracle(buffer.samples)


def test_first_window_allocates_no_window_sized_array():
    """Floor estimated, as floor-carried windows already assert: under 6
    bytes per sample at peak, where the whole-window power alone is 8."""
    buffer = preset_buffer("bluetooth", 0.2, seed=3)
    PeakDetector().detect(buffer)  # warm caches outside the trace
    tracemalloc.start()
    try:
        got = PeakDetector().detect(buffer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(buffer)
    assert got.noise_floor == _oracle(buffer.samples)
    assert 0 < got.gated_samples < 0.25 * len(buffer)
