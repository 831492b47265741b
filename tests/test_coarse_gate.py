"""The coarse-to-fine energy gate against the whole-window gate.

``PeakDetector.detect`` gates only the runs a coarse pass cannot rule
out (``candidate_runs`` -> ``gate_runs``).  The oracle here is the
detector as it ran before that: ``energy_gate`` over a whole-window
``chunked_power``, intervals merged in a plain loop.  The activity
mask, the peak intervals and the per-peak statistics must be equal —
``==`` on floats, not a tolerance — on every boundary the two levels
introduce: block, run, run-merge distance, tile, buffer head and tail.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import preset_buffer
from repro.core.peak_detector import PeakDetector, PeakDetectorConfig
from repro.dsp.energy import (
    RUN_MERGE_SAMPLES,
    TILE_SAMPLES,
    candidate_runs,
    chunked_power,
    energy_gate,
    gate_runs,
    interval_stats,
)
from repro.dsp.samples import SampleBuffer
from repro.obs import Observability
from repro.util.db import db_to_linear
from repro.util.timebase import Timebase

CFG = PeakDetectorConfig()
W = CFG.energy_window
BLOCK = W // 4
#: unit-power noise: the floor a clean window estimates is ~0.87
FLOOR = 0.87
MERGE = max(RUN_MERGE_SAMPLES, W, CFG.min_gap)


def _noise(n, seed=5):
    rng = np.random.default_rng(seed)
    return np.sqrt(0.5) * (rng.normal(size=n) + 1j * rng.normal(size=n))


def _trace(n, bursts=(), seed=5, dtype=np.complex64):
    """Unit-power noise plus ``(start, length, amplitude)`` bursts."""
    x = _noise(n, seed)
    for start, length, amp in bursts:
        x[max(start, 0):max(start + length, 0)] += amp
    return x.astype(dtype)


def _buffer(x):
    buffer = SampleBuffer(x, Timebase(8e6), start_sample=4_000)
    # SampleBuffer makes every input contiguous complex64; hand the
    # detector the array as given so the other layouts reach it too
    buffer.samples = x
    return buffer


def _oracle(x, floor=None, cfg=CFG):
    """The whole-window detector: every sample squared, every sample
    gated.  The floor is the percentile over the finite chunk powers."""
    power, chunk_powers = chunked_power(x, cfg.chunk_samples)
    bad = ~np.isfinite(power)
    power[bad] = 0.0
    if floor is None:
        finite = chunk_powers[np.isfinite(chunk_powers)]
        floor = float(np.percentile(finite if finite.size else chunk_powers,
                                    10.0))
    threshold = floor * float(db_to_linear(cfg.threshold_db))
    mask = energy_gate(power, cfg.energy_window, threshold,
                       cfg.instantaneous_factor * threshold)
    intervals = []
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask, [0]])))
    for start, end in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        if intervals and start - intervals[-1][1] < cfg.min_gap:
            intervals[-1][1] = end
        else:
            intervals.append([start, end])
    intervals = [(s, e) for s, e in intervals if e - s >= cfg.min_length]
    starts = np.array([s for s, _ in intervals], dtype=np.intp)
    ends = np.array([e for _, e in intervals], dtype=np.intp)
    _, means, maxes = interval_stats(power, starts, ends)
    return {"mask": mask, "starts": starts, "ends": ends, "means": means,
            "maxes": maxes, "nonfinite": int(bad.sum()), "floor": floor,
            "threshold": threshold}


def _two_level_mask(x, threshold, cfg=CFG):
    """The mask the coarse and fine passes imply, scattered back over
    the window (idle outside the runs), and the runs themselves."""
    runs = candidate_runs(x, cfg.energy_window, threshold,
                          max(RUN_MERGE_SAMPLES, cfg.energy_window,
                              cfg.min_gap))
    assert runs is not None
    fine = gate_runs(x, None, *runs, cfg.energy_window, threshold,
                     cfg.instantaneous_factor * threshold)
    mask = np.zeros(x.size, dtype=bool)
    for start, end in zip(fine.starts, fine.ends):
        mask[start:end] = True
    return mask, runs


def _assert_equal(x, floor=FLOOR, cfg=CFG, detector=None):
    """detect() equals the oracle; returns the detection."""
    want = _oracle(x, floor, cfg)
    got = (detector or PeakDetector(cfg)).detect(_buffer(x), floor)
    h = got.history
    assert (got.noise_floor, got.threshold) == (want["floor"], want["threshold"]) \
        or (np.isnan(got.noise_floor) and np.isnan(want["floor"]))
    assert np.array_equal(h.starts - 4_000, want["starts"])
    assert np.array_equal(h.ends - 4_000, want["ends"])
    assert np.array([p.mean_power for p in h]).tobytes() == want["means"].tobytes()
    assert np.array([p.peak_power for p in h]).tobytes() == want["maxes"].tobytes()
    assert got.nonfinite_samples == want["nonfinite"]
    assert got.total_samples == x.size
    return got


def _assert_mask_equal(x, floor=FLOOR, cfg=CFG):
    want = _oracle(x, floor, cfg)
    mask, runs = _two_level_mask(x, want["threshold"], cfg)
    assert mask.tobytes() == want["mask"].tobytes()
    return want, runs


LENGTHS = [0, 1, 4, 19, 20, 21, 24, 25, 99, 100, TILE_SAMPLES - 1,
           TILE_SAMPLES, TILE_SAMPLES + 1, 1_600_003]


def _bursts_for(n):
    return [(3, 8, 4.0), (60, 30, 4.0), (4_000, 5_000, 4.0),
            (TILE_SAMPLES - 300, 800, 4.0), (700_000, 2_000, 4.0),
            (n - 1_000, 1_000, 4.0)]


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("carried", [True, False])
def test_lengths_around_every_boundary(n, carried):
    x = _trace(n, _bursts_for(n))
    if n == 0 and not carried:
        with pytest.raises(ValueError):
            PeakDetector().detect(_buffer(x))
        return
    floor = FLOOR if carried else None
    got = _assert_equal(x, floor)
    if n:
        _assert_mask_equal(x, got.noise_floor)
    if n == 1_600_003:
        assert len(got.history) == 5
        assert got.gated_samples < n // 20


#: (start, length) of one burst in a 60 000-sample window: shorter than a
#: block, exactly min_length and one either side, over a block edge, at
#: the buffer head inside the warm-up prefix, in the ragged tail
PLACEMENTS = [
    (30_001, 3), (30_000, CFG.min_length), (30_002, CFG.min_length - 1),
    (30_003, CFG.min_length + 1), (30_000 + BLOCK - 2, 4), (29_998, 700),
    (0, 5), (0, 60), (2, W - 3), (W - 1, 50), (59_950, 52), (59_999, 3),
]


@pytest.mark.parametrize("start,length", PLACEMENTS)
@pytest.mark.parametrize("amp", [3.0, 8.0])
def test_burst_placements(start, length, amp):
    x = _trace(60_002, [(start, length, amp)])
    _assert_mask_equal(x)
    _assert_equal(x)
    _assert_equal(x, None)


def test_bursts_either_side_of_the_run_merge_distance():
    """Two bursts drawn apart sample by sample: their candidate runs are
    one run, then two — the second gated with its own context."""
    around = set()
    for gap in range(MERGE - 3 * W, MERGE + 3 * W):
        second = 10_300 + gap
        x = _trace(40_000, [(10_000, 300, 4.0), (second, 300, 4.0)])
        x[10_300:second] *= 0.1
        want, (starts, ends) = _assert_mask_equal(x)
        assert len(want["starts"]) == 2
        _assert_equal(x)
        around.add(int(np.count_nonzero(
            (ends > 10_000) & (starts < second + 300))))
        if len(around) == 2:
            gaps = starts[1:] - ends[:-1]
            assert gaps.min() >= MERGE
    assert around == {1, 2}


@pytest.mark.parametrize("min_gap", [CFG.min_gap, 60])
def test_min_gap_either_side_across_idle_blocks(min_gap):
    """Two bursts around ``min_gap`` apart, at every block phase.  The
    silent gap between them holds whole blocks — at ``min_gap=60`` ones
    the coarse pass alone calls idle — yet a merged peak's mean sums the
    gap's samples, so the run that holds both bursts must hold them too."""
    cfg = PeakDetectorConfig(min_gap=min_gap)
    peaks = set()
    for gap in range(min_gap - 3, min_gap + 4):
        for offset in range(BLOCK):
            start = 20_000 + offset
            x = _trace(50_000, [(start, 200, 6.0), (start + 200 + gap, 200, 6.0)])
            x[start + 200: start + 200 + gap] = 0.0
            want, _ = _assert_mask_equal(x, cfg=cfg)
            _assert_equal(x, cfg=cfg)
            peaks.add(len(want["starts"]))
    assert peaks == {1, 2}  # the sweep straddles the merge decision
    if min_gap == 60:
        # the cover of a block deep in the gap is all silence
        runs = candidate_runs(x, W, want["threshold"], merge_gap=1)
        assert np.any((runs[1][:-1] > start) & (runs[0][1:] < start + 460))


def test_amplitude_sweep_across_the_threshold():
    """Bursts from 3 to 6 dB over the floor in 0.05 dB steps, 4 dB being
    the gate: every one decided as the whole-window gate decides it."""
    levels_db = np.arange(3.0, 6.0001, 0.05)
    n = 4_000 * (len(levels_db) + 1)
    x = np.zeros(n, dtype=np.complex128)
    # a constant-envelope floor, so each burst's average sits at its level
    rng = np.random.default_rng(9)
    x += np.sqrt(FLOOR) * np.exp(2j * np.pi * rng.random(n))
    for k, level in enumerate(levels_db):
        a = 4_000 * (k + 1)
        x[a:a + 400] *= np.sqrt(float(db_to_linear(level)))
    x = x.astype(np.complex64)
    want, _ = _assert_mask_equal(x)
    found = len(want["starts"])
    assert 0 < found < len(levels_db)  # the sweep does straddle the gate
    _assert_equal(x)


def test_all_idle_and_all_signal_windows():
    idle = _trace(100_000)
    got = _assert_equal(idle)
    assert len(got.history) == 0 and got.gated_samples < 5_000
    _assert_equal(idle, None)

    busy = _trace(100_000, [(0, 100_000, 4.0)])
    got = _assert_equal(busy, FLOOR)
    assert len(got.history) == 1 and got.gated_samples == busy.size


def test_dense_windows_take_the_coarse_pass():
    """Floor unknown and most chunks above threshold: the coarse pass
    still skips the idle stretch, and the burst's interior is certified
    without the running sum."""
    for length in (110_000, 60_000):
        x = _trace(200_000, [(20_000, length, 4.0)])
        got = _assert_equal(x, None)
        assert got.gated_samples < length + 10_000
        assert got.exact_samples < 0.05 * length


@pytest.mark.parametrize("make", [
    lambda x: x[::2],                               # strided complex64
    lambda x: x.astype(np.complex128),
    lambda x: x.real.copy(),                        # real float32
    lambda x: x,
], ids=["strided", "complex128", "real", "contiguous-complex64"])
@pytest.mark.parametrize("carried", [True, False])
def test_other_layouts_take_the_whole_window_path(make, carried):
    x = make(_trace(80_000, [(10_000, 900, 4.0), (50_000, 3_000, 4.0)]))
    got = _assert_equal(x, FLOOR / (1 if np.iscomplexobj(x) else 2)
                        if carried else None)
    assert len(got.history) >= 2
    contiguous64 = x.dtype == np.complex64 and x.flags.c_contiguous
    assert (got.gated_samples < x.size) == contiguous64


IDLE, IN_BURST = 30_000, 10_400


@pytest.mark.parametrize("at", [IDLE, IN_BURST], ids=["idle", "in-burst"])
@pytest.mark.parametrize("value", [
    np.nan, np.inf, complex(0.0, -np.inf), complex(1e20, 0.0),
], ids=["nan", "inf", "-infj", "1e20"])
@pytest.mark.parametrize("carried", [True, False])
def test_nonfinite_and_overflowing_samples(at, value, carried):
    """A NaN/Inf sample, or a finite one whose square overflows float32,
    makes the coarse sums non-finite: the whole window is gated, the
    non-finite sample zeroed and counted, as before."""
    x = _trace(60_000, [(10_000, 900, 4.0), (45_000, 3_000, 4.0)])
    x[at] = value
    obs = Observability()
    got = _assert_equal(x, FLOOR if carried else None,
                        detector=PeakDetector(obs=obs))
    assert got.gated_samples == x.size
    assert got.nonfinite_samples == (0 if value == 1e20 else 1)
    assert obs.registry.value("rfdump_peak_gated_samples_total") == x.size
    assert candidate_runs(x, W, got.threshold, MERGE) is None


def test_thresholds_float32_cannot_resolve_take_the_whole_window_path():
    x = (_trace(20_000, [(5_000, 500, 4.0)]) * 1e-18).astype(np.complex64)
    got = _assert_equal(x, None)
    assert len(got.history) == 1 and got.gated_samples == x.size
    assert candidate_runs(x, W, float("nan"), MERGE) is None
    assert candidate_runs(x, W, 0.0, MERGE) is None


def test_energy_window_other_than_the_default():
    for window, chunk in ((1, 200), (2, 200), (7, 50), (64, 256), (200, 200),
                          (1500, 2000)):  # blocks capped at COARSE_BLOCK_MAX
        cfg = PeakDetectorConfig(energy_window=window, chunk_samples=chunk)
        x = _trace(50_003, [(0, 9, 5.0), (20_001, 333, 3.0),
                            (40_000, 41, 5.0)], seed=window)
        _assert_mask_equal(x, cfg=cfg)
        _assert_equal(x, cfg=cfg)
        _assert_equal(x, None, cfg=cfg)


def test_min_gap_wider_than_the_merge_distance_keeps_runs_whole():
    cfg = PeakDetectorConfig(min_gap=3_000)
    x = _trace(60_000, [(10_000, 300, 4.0), (12_900, 300, 4.0)])
    got = _assert_equal(x, cfg=cfg)
    assert len(got.history) == 1  # merged across ~2 600 idle samples


def test_lazy_chunks_equal_with_the_floor_carried():
    x = _trace(50_000, [(10_000, 900, 4.0)])
    estimated = PeakDetector().detect(_buffer(x))
    carried = PeakDetector().detect(_buffer(x), estimated.noise_floor)
    key = lambda c: (c.start_sample, c.n_samples, c.mean_power, c.n_peaks,  # noqa: E731
                     c.active, c.peak_indices)
    assert [key(c) for c in carried.chunks] == [key(c) for c in estimated.chunks]


def test_gated_samples_counter_and_no_window_sized_array():
    """With the floor carried, detect() allocates no float64 array of
    the window's length: under 6 bytes per sample at peak, where the
    whole-window gate needs 9 (8 for the power, 1 for the mask)."""
    buffer = preset_buffer("bluetooth", 0.2, seed=3)
    obs = Observability()
    detector = PeakDetector(obs=obs)
    floor = detector.detect(buffer).noise_floor
    first = obs.registry.value("rfdump_peak_gated_samples_total")
    tracemalloc.start()
    try:
        got = detector.detect(buffer, floor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(buffer)
    assert 0 < got.gated_samples < 0.25 * len(buffer)
    assert obs.registry.value("rfdump_peak_gated_samples_total") \
        == first + got.gated_samples
    assert obs.registry.value("rfdump_peak_scan_samples_total") \
        == 2 * len(buffer)


@st.composite
def _layouts(draw):
    n = draw(st.integers(min_value=1, max_value=6_000))
    bursts = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=1, max_value=400),
        st.floats(min_value=0.5, max_value=6.0),
    ), max_size=6))
    return n, bursts, draw(st.integers(min_value=0, max_value=2**16))


@settings(max_examples=300, deadline=None)
@given(layout=_layouts(),
       floor=st.floats(min_value=0.3, max_value=3.0),
       window=st.sampled_from([1, 3, 8, 20, 33, 1100]))
def test_no_active_sample_outside_a_candidate_run(layout, floor, window):
    """The conservative-filter invariant, stated directly: whatever the
    burst layout, a sample the whole-array gate calls active lies inside
    a run the coarse pass returned."""
    n, bursts, seed = layout
    x = _trace(n, bursts, seed=seed)
    threshold = floor * float(db_to_linear(CFG.threshold_db))
    power, _ = chunked_power(x, CFG.chunk_samples)
    active = energy_gate(power, window, threshold, 0.5 * threshold)
    # merge_gap=1: the bare candidates, nothing hidden by run merging
    starts, ends = candidate_runs(x, window, threshold, merge_gap=1)
    covered = np.zeros(n, dtype=bool)
    for a, b in zip(starts, ends):
        covered[a:b] = True
    assert not np.any(active & ~covered)


#: bursts of a 30 000-sample stream: at the warm-up prefix, shorter than
#: min_length, two under min_gap apart, a long one, one in the tail
STREAM_BURSTS = [(2, 30, 4.0), (900, 35, 8.0), (5_000, 200, 3.0),
                 (5_210, 300, 3.0), (12_000, 9_000, 4.0), (29_950, 50, 8.0)]
STREAM_EDGES = sorted({e for s, n, _ in STREAM_BURSTS for e in (s, s + n)}
                      | {1, 30_000 - 1})


def _cuts():
    near = st.sampled_from(STREAM_EDGES).flatmap(
        lambda e: st.integers(max(e - 40, 1), min(e + 40, 29_999)))
    return st.lists(st.one_of(near, st.integers(1, 29_999)), min_size=1,
                    max_size=6, unique=True).map(sorted)


@settings(max_examples=60, deadline=None)
@given(cuts=_cuts(), floor=st.sampled_from([None, FLOOR]))
def test_a_stream_gated_window_by_window_is_one_pass(cuts, floor):
    """Each window hands the next its gate state and the samples from
    its open group on: the peaks the windows make final are one pass's,
    means and maxima bitwise, however the stream is cut (windows as
    short as one sample included)."""
    x = _trace(30_000, STREAM_BURSTS)
    whole = PeakDetector().detect(_buffer(x), floor)
    detector, gate, peaks = PeakDetector(), None, []
    floor = whole.noise_floor
    for lo, hi in zip([0, *cuts], [*cuts, x.size]):
        if gate is not None and gate.open is not None:
            lo = gate.open[0] - 4_000
        got = detector.detect(
            SampleBuffer(x[lo:hi], Timebase(8e6), 4_000 + lo), floor, gate)
        gate = got.gate
        peaks += [p for p in got.history
                  if hi == x.size or p.start_sample != got.open_start]
    key = [(p.start_sample, p.end_sample, p.mean_power, p.peak_power)
           for p in peaks]
    assert key == [(p.start_sample, p.end_sample, p.mean_power,
                    p.peak_power) for p in whole.history]
