"""The fine gate decides only the samples whose decision is in doubt.

``gate_runs`` certifies a sample active when every power of its
averaging window clears the threshold by the running sum's worst
rounding, and runs ``energy_gate`` over the rest.  The activity mask it
implies must equal, sample for sample, both the whole-array moving
average (``impl="reference"``) and the gate as it ran before
certification: ``energy_gate`` over every sample of the candidate runs,
laid back to back.  Both fine-pass inputs are checked — the whole-window
powers (floor estimated) and powers read from the samples (floor
carried) — and ``detect()`` must find the reference's peaks either way.
"""

import numpy as np
import pytest

from repro.bench.scenarios import preset_buffer
from repro.core.peak_detector import PeakDetector, PeakDetectorConfig
from repro.dsp.energy import (
    RUN_MERGE_SAMPLES,
    candidate_runs,
    chunked_power,
    energy_gate,
    gate_runs,
    moving_average_of,
)
from repro.dsp.samples import SampleBuffer
from repro.obs import Observability
from repro.util.db import db_to_linear
from repro.util.timebase import Timebase

CFG = PeakDetectorConfig()
W = CFG.energy_window
N = 60_000
#: the floor a unit-power noise window estimates
FLOOR = 0.87


def _noise(n=N, seed=5):
    rng = np.random.default_rng(seed)
    return np.sqrt(0.5) * (rng.normal(size=n) + 1j * rng.normal(size=n))


def _constant(length, db, seed=7):
    """A constant-envelope burst ``db`` over the floor."""
    phase = np.random.default_rng(seed).random(length)
    return np.sqrt(FLOOR * float(db_to_linear(db))) * np.exp(2j * np.pi * phase)


def _with(x, *bursts):
    """``x`` with ``(start, samples)`` bursts written over it."""
    x = x.copy()
    for start, burst in bursts:
        x[start:start + len(burst)] = burst
    return x.astype(np.complex64)


def _fine_mask(x, power, runs, threshold, cfg):
    fine = gate_runs(x, power, *runs, cfg.energy_window, threshold,
                     cfg.instantaneous_factor * threshold)
    mask = np.zeros(x.size, dtype=bool)
    for start, end in zip(fine.starts, fine.ends):
        mask[start:end] = True
    return mask, fine


def _all_samples_gate(power, runs, threshold, cfg):
    """The fine pass before certification: ``energy_gate`` over every
    sample of the runs laid back to back, context forced idle."""
    starts, ends = runs
    origins = np.maximum(starts - cfg.energy_window, 0)
    active = energy_gate(
        np.concatenate([power[a:b] for a, b in zip(origins, ends)]),
        cfg.energy_window, threshold, cfg.instantaneous_factor * threshold)
    mask = np.zeros(power.size, dtype=bool)
    at = 0
    for origin, start, end in zip(origins, starts, ends):
        mask[start:end] = active[at + start - origin: at + end - origin]
        at += end - origin
    return mask


def _check(x, floor=FLOOR, cfg=CFG):
    """Every mask equal, ``detect()`` equal to the reference with the
    floor as given and estimated; returns the fine passes."""
    power, chunk_powers = chunked_power(x, cfg.chunk_samples)
    power[~np.isfinite(power)] = 0.0
    reference = PeakDetector(cfg, impl="reference").detect(
        SampleBuffer(x, Timebase(8e6)), floor)
    threshold = reference.threshold
    instant = cfg.instantaneous_factor * threshold
    want = ((moving_average_of(power, cfg.energy_window) > threshold)
            & (power > instant))
    runs = candidate_runs(x, cfg.energy_window, threshold,
                          max(RUN_MERGE_SAMPLES, cfg.energy_window, cfg.min_gap))
    if runs is None:
        runs = np.array([0]), np.array([x.size])
        inputs = [power]
    else:
        inputs = [power, None]
    assert _all_samples_gate(power, runs, threshold, cfg).tobytes() \
        == want.tobytes()
    fines = []
    for given in inputs:
        mask, fine = _fine_mask(x, given, runs, threshold, cfg)
        assert mask.tobytes() == want.tobytes()
        fines.append(fine)
    for carried in (floor, None):
        expected = PeakDetector(cfg, impl="reference").detect(
            SampleBuffer(x, Timebase(8e6)), carried).history
        got = PeakDetector(cfg).detect(SampleBuffer(x, Timebase(8e6)),
                                       carried).history
        assert np.array_equal(got.starts, expected.starts)
        assert np.array_equal(got.ends, expected.ends)
        assert [p.peak_power for p in got] == [p.peak_power for p in expected]
        assert np.allclose([p.mean_power for p in got],
                           [p.mean_power for p in expected], rtol=1e-9, atol=0)
    return fines


@pytest.mark.parametrize("db", [5.0, 20.0, 40.0])
def test_constant_envelope_bursts(db):
    x = _with(_noise(), (10_000, _constant(3_000, db)),
              (30_000, _constant(700, db)))
    for fine in _check(x):
        # the interiors are certified: only the four edges are evaluated,
        # each as a span of under a window plus its context
        assert fine.exact <= 4 * 3 * W


def test_loud_burst_ahead_of_a_weak_one_in_the_same_run():
    loud = _constant(5_000, 60.0)
    weak = _constant(3_000, 5.0)
    x = _with(_noise(), (10_000, loud), (15_000, weak))
    _check(x)
    x = _with(_noise(), (10_000, _constant(20_000, 80.0)), (30_000, weak))
    _check(x)


def test_the_margin_grows_with_the_running_sum():
    """Weak powers a millionth over the threshold are certified after
    quiet ether, but not behind an 80 dB burst: there a running sum's
    rounding exceeds the millionth, so they go to the exact gate."""
    threshold = FLOOR * float(db_to_linear(CFG.threshold_db))
    level = np.sqrt(threshold * (1 + 1e-6))
    weak = np.full(3_000, level, dtype=np.complex128)
    loud = _constant(20_000, 80.0)
    x = _with(_noise(), (30_000, weak))
    runs = candidate_runs(x, W, threshold, RUN_MERGE_SAMPLES)
    quiet = gate_runs(x, None, *runs, W, threshold, 0.5 * threshold)
    x = _with(_noise(), (10_000, loud), (30_000, weak))
    runs = candidate_runs(x, W, threshold, RUN_MERGE_SAMPLES)
    behind = gate_runs(x, None, *runs, W, threshold, 0.5 * threshold)
    assert quiet.exact < 200
    assert behind.exact > weak.size


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_instantaneous_factor(factor):
    cfg = PeakDetectorConfig(instantaneous_factor=factor)
    rng = np.random.default_rng(11)
    x = _noise()
    for start, db in ((5_000, 6.0), (20_000, 10.0), (40_000, 20.0)):
        x[start:start + 2_000] *= np.sqrt(float(db_to_linear(db)))
        x[start + 2_000:start + 2_100] *= rng.random(100)
    _check(x.astype(np.complex64), cfg=cfg)


def test_bursts_at_the_first_and_last_samples():
    burst = _constant(2_000, 20.0)
    fines = _check(_with(_noise(), (0, burst), (N - 2_000, burst)))
    for fine in fines:
        assert (fine.starts[0], fine.ends[-1]) == (0, N)
    _check(_with(_noise(), (0, _constant(3, 20.0))))


@pytest.mark.parametrize("dip", [1, 23, 24, 25])
def test_dips_inside_a_burst_around_min_gap(dip):
    x = _with(_noise(), (10_000, _constant(4_000, 20.0)))
    x[12_000:12_000 + dip] = 0.0
    _check(x)
    got = PeakDetector().detect(SampleBuffer(x, Timebase(8e6)), FLOOR)
    # the dip's own samples and the window after it are decided exactly
    assert len(got.history) == (1 if dip < CFG.min_gap else 2)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_burst_inside_a_certifiable_stretch(value):
    x = _with(_noise(), (10_000, _constant(6_000, 20.0)))
    x[12_000:12_050] = value
    obs = Observability()
    fine, = _check(x)
    got = PeakDetector(obs=obs).detect(SampleBuffer(x, Timebase(8e6)), FLOOR)
    assert got.nonfinite_samples == 50
    # the coarse pass cannot read a NaN window, so it is one run; what
    # stays certified is the burst on either side of the zeroed stretch
    assert fine.gated == N and fine.exact < N - 5_000
    assert obs.registry.value("rfdump_peak_exact_samples_total") == got.exact_samples


@pytest.mark.parametrize("carried", [True, False])
def test_a_broadcast_window_is_decided_at_its_edges(carried):
    """The dense case: 75% of a Wi-Fi broadcast window is signal, and
    under 5% of it reaches the running-sum gate."""
    buffer = preset_buffer("broadcast", 0.2, seed=3)
    detector = PeakDetector()
    floor = detector.detect(buffer).noise_floor if carried else None
    got = detector.detect(buffer, floor)
    assert len(got.history) == 34
    assert got.gated_samples < 0.9 * len(buffer)
    assert got.exact_samples <= 0.05 * len(buffer)
