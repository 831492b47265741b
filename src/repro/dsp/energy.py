"""Energy measurement and noise-floor tracking.

The protocol-agnostic peak detector (Section 4.3) rests on two primitives:
a moving-average of instantaneous power over a short window (default 20
samples = 2.5 us), and a noise-floor estimate against which the 4 dB energy
threshold is applied.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_CHUNK_SAMPLES, DEFAULT_ENERGY_WINDOW
from repro.dsp.samples import chunk_views


#: samples per tile of the tiled kernels below.  A tile's float64 working
#: set (its slice of ``power`` plus scratch) stays L2-resident, so each
#: pass reads its input from memory once instead of once per ufunc.
#: Both passes over a 1.6 M-sample window measured 14.0 / 12.7 / 12.9 /
#: 15.6 / 17.3 ms at 8 / 16 / 32 / 64 / 128 thousand samples per tile.
TILE_SAMPLES = 32_000


def instant_power(samples: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-sample ``|x|^2`` as float64, in one pass over real and imag.

    ``re*re + im*im`` avoids the intermediate magnitude array (and the
    square root) that ``np.abs(x) ** 2`` would compute; ``dtype=float64``
    on the ufunc folds the upcast into the multiply, skipping the
    ``astype`` copies.  With ``out`` (a float64 array of the input's
    length — :func:`chunked_power`'s per-tile destination) the result is
    written in place; values are bitwise identical either way.
    """
    x = np.asarray(samples)
    if np.iscomplexobj(x):
        re, im = x.real, x.imag
        out = np.multiply(re, re, dtype=np.float64, out=out)
        out += np.multiply(im, im, dtype=np.float64)
        return out
    return np.multiply(x, x, dtype=np.float64, out=out)


def chunked_power(samples: np.ndarray,
                  chunk_samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(instant_power(x), chunk_average_of(power, chunk_samples))`` of
    a 1-D array, tile by tile.

    C-contiguous complex64 input is read through its interleaved float32
    view: cast into a float64 scratch, squared in place and the even/odd
    halves added — the same three IEEE operations per sample as
    ``re*re + im*im`` in float64, in one read of the samples.  Each
    tile's chunk rows are reduced while still cache-hot; tiles are a
    whole number of chunks, so every row is the same contiguous pairwise
    sum as in the whole-array form.
    """
    if chunk_samples <= 0:
        raise ValueError("chunk_samples must be positive")
    x = np.asarray(samples)
    n = x.size
    power = np.empty(n, dtype=np.float64)
    chunk_powers = np.empty(-(-n // chunk_samples), dtype=np.float64)
    tile = max(TILE_SAMPLES // chunk_samples, 1) * chunk_samples
    fast = x.dtype == np.complex64 and x.flags.c_contiguous
    if fast:
        flat = x.view(np.float32)
        scratch = np.empty(2 * min(n, tile), dtype=np.float64)
    # one iteration per 32k-sample tile, never per sample
    for a in range(0, n, tile):
        b = min(a + tile, n)
        dst = power[a:b]
        if fast:
            t = scratch[: 2 * (b - a)]
            np.copyto(t, flat[2 * a: 2 * b])
            np.multiply(t, t, out=t)
            np.add(t[0::2], t[1::2], out=dst)
        else:
            instant_power(x[a:b], out=dst)
        chunk_average_of(dst, chunk_samples,
                         out=chunk_powers[a // chunk_samples:])
    return power, chunk_powers


def interval_stats(
    power: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched ``(sums, means, maxes)`` of ``power`` over ``[start, end)`` intervals.

    The intervals must be sorted, non-empty and non-overlapping — exactly
    what the peak detector produces.  One ``np.add.reduceat`` /
    ``np.maximum.reduceat`` pass replaces a Python loop of per-interval
    ``seg.mean()`` / ``seg.max()`` calls.
    """
    power = np.asarray(power, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    if starts.shape != ends.shape or starts.ndim != 1:
        raise ValueError("starts/ends must be matching 1-D arrays")
    n = starts.size
    if n == 0:
        empty = np.zeros(0, dtype=np.float64)
        return empty, empty.copy(), empty.copy()
    if np.any(ends <= starts) or np.any(starts < 0) or ends[-1] > power.size:
        raise ValueError("intervals must be non-empty and inside the array")
    if np.any(starts[1:] < ends[:-1]):
        raise ValueError("intervals must be sorted and non-overlapping")
    idx = np.empty(2 * n, dtype=np.intp)
    idx[0::2] = starts
    idx[1::2] = ends
    # reduceat indices must be < power.size; an interval that ends exactly
    # at the array end is expressed by dropping its (redundant) end marker
    if ends[-1] == power.size:
        idx = idx[:-1]
    sums = np.add.reduceat(power, idx)[0::2]
    maxes = np.maximum.reduceat(power, idx)[0::2]
    means = sums / (ends - starts)
    return sums, means, maxes


#: cached ``[1, 2, ..., head]`` divisors for the moving-average warm-up
#: prefix — one small array per distinct window, allocated once instead
#: of per call on the streaming path
_RAMP_CACHE: dict = {}


def _ramp(head: int) -> np.ndarray:
    ramp = _RAMP_CACHE.get(head)
    if ramp is None:
        ramp = _RAMP_CACHE[head] = np.arange(1, head + 1)
    return ramp


def moving_average_of(power: np.ndarray, window: int) -> np.ndarray:
    """Causal moving average of a precomputed power array."""
    if window <= 0:
        raise ValueError("window must be positive")
    power = np.asarray(power)
    if power.size == 0:
        return power.astype(np.float64)
    # np.add.accumulate is np.cumsum minus the fromnumeric wrapper
    csum = np.add.accumulate(power, dtype=np.float64)
    out = np.empty(power.size, dtype=np.float64)
    head = min(window, power.size)
    out[:head] = csum[:head] / _ramp(head)
    if power.size > window:
        out[window:] = (csum[window:] - csum[:-window]) / window
    return out


def energy_gate(power: np.ndarray, window: int, avg_threshold: float,
                instant_threshold: float) -> np.ndarray:
    """``(moving_average_of(power, window) > avg_threshold) & (power >
    instant_threshold)`` without materialising the running sum or the
    moving average.

    One sequential running sum is continued across tiles: the scratch
    holds the previous tile's last ``window`` sums followed by the
    tile's samples, and ``np.add.accumulate`` starts from the last of
    those sums — it is strictly sequential, so every value equals the
    whole-array ``csum`` bit for bit, and so does every difference,
    quotient and comparison formed from it.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    power = np.asarray(power, dtype=np.float64)
    n = power.size
    active = np.empty(n, dtype=bool)
    tile = max(TILE_SAMPLES, window)
    span = min(n, tile)
    # sums[j] is csum[a - window + j]: the zeros ahead of sample 0 leave
    # csum[0] = 0.0 + power[0] = power[0]
    sums = np.zeros(window + span, dtype=np.float64)
    avg = np.empty(span, dtype=np.float64)
    above = np.empty(span, dtype=bool)
    # one iteration per 32k-sample tile, never per sample
    for a in range(0, n, tile):
        b = min(a + tile, n)
        size = b - a
        sums[window: window + size] = power[a:b]
        run = sums[window - 1: window + size]
        np.add.accumulate(run, out=run)
        np.subtract(sums[window: window + size], sums[:size], out=avg[:size])
        np.divide(avg[:size], window, out=avg[:size])
        if a == 0:
            # warm-up: the first window-1 outputs average a shorter prefix
            head = min(window, size)
            np.divide(sums[window: window + head], _ramp(head), out=avg[:head])
        np.greater(avg[:size], avg_threshold, out=active[a:b])
        np.greater(power[a:b], instant_threshold, out=above[:size])
        active[a:b] &= above[:size]
        sums[:window] = sums[size: size + window]
    return active


def moving_average_power(samples: np.ndarray, window: int = DEFAULT_ENERGY_WINDOW) -> np.ndarray:
    """Causal moving average of |x|^2 over ``window`` samples.

    Output ``y[n]`` averages ``|x[n-window+1 .. n]|^2``; the first
    ``window - 1`` outputs average over the shorter available prefix, so the
    result has the same length as the input and no startup bias toward zero.
    """
    return moving_average_of(instant_power(samples), window)


def chunk_average_of(power: np.ndarray, chunk_samples: int,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-chunk mean of a precomputed power array.

    ``out`` (a float64 array of ``ceil(len(power) / chunk_samples)``
    entries) reuses a caller-provided destination, as
    :func:`chunked_power` does per tile; values are bitwise identical to
    the allocating path.
    """
    if chunk_samples <= 0:
        raise ValueError("chunk_samples must be positive")
    body, tail = chunk_views(np.asarray(power), chunk_samples)
    nbody = body.shape[0]
    n_out = nbody + (1 if tail.size else 0)
    if out is None:
        out = np.empty(n_out, dtype=np.float64)
    # row means as one ufunc reduce + in-place divide: bitwise identical
    # to body.mean(axis=1) (np.mean is the same pairwise add.reduce),
    # without the per-call _methods._mean machinery
    if nbody:
        np.add.reduce(body, axis=1, dtype=np.float64, out=out[:nbody])
        out[:nbody] /= chunk_samples
    if tail.size:
        out[nbody] = np.add.reduce(tail, dtype=np.float64) / tail.size
    return out[:n_out]


def chunk_average_power(
    samples: np.ndarray, chunk_samples: int = DEFAULT_CHUNK_SAMPLES
) -> np.ndarray:
    """Mean |x|^2 per chunk; the tail partial chunk is averaged over its size."""
    return chunk_average_of(instant_power(samples), chunk_samples)


class NoiseFloorEstimator:
    """Tracks the noise floor as a low percentile of chunk powers.

    The ether is idle a reasonable fraction of the time even when busy, so a
    low percentile of per-chunk average powers is a robust floor estimate.
    The estimator is streaming: feed it chunk powers as they are computed
    and read :attr:`noise_floor` at any point.
    """

    def __init__(self, percentile: float = 10.0, max_history: int = 4096):
        if not 0 < percentile < 100:
            raise ValueError("percentile must be in (0, 100)")
        self._percentile = percentile
        self._max_history = max_history
        self._history = []
        self._cached = None

    def update(self, chunk_powers: np.ndarray) -> None:
        """Fold a batch of per-chunk average powers into the estimate."""
        arr = np.asarray(chunk_powers, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        self._history.extend(arr.tolist())
        if len(self._history) > self._max_history:
            self._history = self._history[-self._max_history :]
        self._cached = None

    @property
    def noise_floor(self) -> float:
        """Current noise-floor power estimate (linear)."""
        if not self._history:
            raise RuntimeError("no chunk powers observed yet")
        if self._cached is None:
            self._cached = float(np.percentile(self._history, self._percentile))
        return self._cached

    @property
    def n_observed(self) -> int:
        return len(self._history)


def estimate_noise_floor(samples: np.ndarray, chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
                         percentile: float = 10.0) -> float:
    """One-shot noise-floor estimate over a whole buffer."""
    est = NoiseFloorEstimator(percentile=percentile)
    est.update(chunk_average_power(samples, chunk_samples))
    return est.noise_floor
