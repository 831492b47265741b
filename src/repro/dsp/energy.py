"""Energy measurement and noise-floor estimation.

The protocol-agnostic peak detector (Section 4.3) rests on two primitives:
a moving-average of instantaneous power over a short window (default 20
samples = 2.5 us), and a noise-floor estimate against which the 4 dB energy
threshold is applied.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_CHUNK_SAMPLES, DEFAULT_ENERGY_WINDOW
from repro.dsp.samples import chunk_views


#: samples per tile of the tiled kernels below.  A tile's float64 working
#: set (its slice of ``power`` plus scratch) stays L2-resident, so each
#: pass reads its input from memory once instead of once per ufunc.
#: Both passes over a 1.6 M-sample window measured 14.0 / 12.7 / 12.9 /
#: 15.6 / 17.3 ms at 8 / 16 / 32 / 64 / 128 thousand samples per tile.
#: Since the coarse pass (:func:`candidate_runs`) the peak detector
#: squares only the samples worth gating, run by run (:func:`gate_runs`),
#: even for the floor (:func:`certified_floor`); the moving average runs
#: only over the spans its powers leave in doubt.
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


def _interleaved_power(flat: np.ndarray, scratch: np.ndarray,
                       out: np.ndarray) -> None:
    """``|x|^2`` of one tile of interleaved float32 ``re, im`` pairs into
    the float64 ``out``: cast, square in place, add the even and odd
    halves — per sample the three IEEE operations of ``re*re + im*im``."""
    t = scratch[: flat.size]
    np.copyto(t, flat)
    np.multiply(t, t, out=t)
    np.add(t[0::2], t[1::2], out=out)


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
            _interleaved_power(flat[2 * a: 2 * b], scratch, dst)
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


def run_edges(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Starts/ends of the contiguous True runs of a boolean mask."""
    if mask.size == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    # run boundaries alternate start, end, start, ... once the mask's
    # own edges close the first and last run
    edges = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    if mask[0]:
        edges = np.concatenate([[0], edges])
    if mask[-1]:
        edges = np.concatenate([edges, [mask.size]])
    return edges[0::2], edges[1::2]


#: the coarse pass declares a block idle only when its float32 sum sits
#: this far (relative) under the gate's threshold.  At the default
#: 20-sample window a block sum is ten float32 products and nine adds,
#: the cover four more adds: ~1e-6 relative error at 6e-8 per operation,
#: a hundredth of the margin
COARSE_MARGIN = 1e-4

#: largest block of the coarse pass: a longer row's worst-case rounding
#: (6e-8 per product and add) would no longer be a small part of the margin
COARSE_BLOCK_MAX = 256

#: candidate runs closer than this many samples gate as one: laying one
#: more run into the fine pass costs about what gating this many does
RUN_MERGE_SAMPLES = 512

_FLOAT32_TINY = float(np.finfo(np.float32).tiny)


def _groups(starts: np.ndarray, ends: np.ndarray,
            apart: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Intervals whose successor is not ``apart`` joined into one."""
    return (starts[np.concatenate([[True], apart])[:starts.size]],
            ends[np.concatenate([apart, [True]])[:ends.size]])


def coarse_block(window: int) -> int:
    """Samples per row of the coarse pass at averaging window ``window``."""
    return min(max(window // 4, 1), COARSE_BLOCK_MAX)


def block_sums(samples: np.ndarray, window: int) -> Optional[np.ndarray]:
    """The coarse pass's one read: float32 ``|x|^2`` sums over rows of
    :func:`coarse_block` samples (a ragged tail left out) of C-contiguous
    complex64 ``samples``; ``None`` for any other layout, no samples, or
    a sum not finite (a NaN or Inf sample, or a square that overflows)."""
    if not (samples.size and samples.dtype == np.complex64
            and samples.flags.c_contiguous):
        return None
    block = coarse_block(window)
    nblocks = samples.size // block
    rows = samples.view(np.float32)[: 2 * block * nblocks].reshape(nblocks, 2 * block)
    sums = np.einsum("ij,ij->i", rows, rows)
    return sums if np.isfinite(sums.sum()) else None


def candidate_runs(samples: np.ndarray, window: int, avg_threshold: float,
                   merge_gap: int, sums: Optional[np.ndarray] = None,
                   head: Optional[float] = None
                   ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Coarse pass of the energy gate: the sample runs ``[start, end)``
    outside which ``moving_average_of(|x|^2, window) > avg_threshold`` is
    false by construction.

    Reads the samples' :func:`block_sums` (or ``sums``).  Powers are
    non-negative, so a sample passes the averaged gate only if the blocks
    its window touches — its own and the few before it — hold ``window *
    avg_threshold`` between them; a block whose sum over those blocks
    stays under that by :data:`COARSE_MARGIN` is idle.  ``head``, the
    power of the ``window - 1`` samples before ``samples``, is added to
    the first blocks'; without it the stream starts at ``samples``, whose
    head (the moving average's warm-up prefix) is always a candidate, as
    is a ragged tail shorter than a block.  Runs closer than ``merge_gap``
    samples are returned as one.  ``None`` — gate the whole array — when
    the block sums are, or the threshold is too small for float32.
    """
    n = samples.size
    block = coarse_block(window)
    nblocks = n // block
    limit = window * avg_threshold * (1.0 - COARSE_MARGIN)
    # below this, products that underflow float32 outweigh the margin
    # (and a NaN threshold compares false)
    if not limit > _FLOAT32_TINY / COARSE_MARGIN:
        return None
    sums = block_sums(samples, window) if sums is None else sums
    if sums is None:
        return None
    # cover[j]: the blocks a window ending inside block j can touch
    cover = sums.copy()
    for k in range(1, (window + block - 2) // block + 1):
        cover[k:] += sums[:-k]
    lead = -(-window // block)
    if head is not None:
        cover[:lead] += np.float32(head)
    candidate = cover > np.float32(limit)
    if head is None:
        candidate[:lead] = True
    starts, ends = run_edges(candidate)
    starts, ends = starts * block, ends * block
    if n > nblocks * block:
        starts = np.append(starts, nblocks * block)
        ends = np.append(ends, n)
    return _groups(starts, ends, starts[1:] - ends[:-1] >= merge_gap)


#: chunks :func:`certified_floor` recomputes at most; more (a constant
#: window ties every chunk with the percentile's) and it declines
FLOOR_AMBIGUOUS_MAX = 64


def certified_floor(samples: np.ndarray, sums: Optional[np.ndarray],
                    window: int, chunk_samples: int,
                    percentile: float = 10.0) -> Optional[float]:
    """``floor_of(chunked_power(samples, chunk_samples)[1], percentile)``,
    bit for bit, from the :func:`block_sums`: a chunk's rows' sums, added
    in float64, are within ``4 * block - 1`` float32 roundings of its
    power, and the margin is nine times that (1.0e-5 at the default
    window).  A chunk a margin under (over) both order statistics the
    percentile reads is certainly ranked before (after) them; only the
    rest are recomputed exactly, the others standing in as copies of
    their least and greatest.  ``None`` (not certified) when ``sums`` is,
    a chunk is not whole rows, the last chunk is not finite, the floor is
    under what float32 resolves, or over :data:`FLOOR_AMBIGUOUS_MAX`
    chunks are in doubt.
    """
    block = coarse_block(window)
    if sums is None or chunk_samples % block:
        return None
    nbody = samples.size // chunk_samples
    approx = np.empty(-(-samples.size // chunk_samples), dtype=np.float64)
    per = chunk_samples // block
    np.add.reduce(sums[: nbody * per].reshape(nbody, per), axis=1,
                  dtype=np.float64, out=approx[:nbody])
    approx[:nbody] /= chunk_samples
    # the ragged last chunk, which the rows leave out, is exact at once
    approx[nbody:] = chunked_power(samples[nbody * chunk_samples:],
                                   chunk_samples)[1]
    margin = 9 * (4 * block - 1) * float(np.finfo(np.float32).epsneg)
    first = int(np.floor((approx.size - 1) * (percentile / 100)))
    ranks = [first, min(first + 1, approx.size - 1)]
    lower, upper = np.partition(approx, ranks)[ranks] * [1 - margin, 1 + margin]
    if not (lower > _FLOAT32_TINY / margin and np.isfinite(approx[-1])):
        return None
    below = approx * (1 + margin) < lower
    doubt = np.flatnonzero(~below & (approx * (1 - margin) <= upper))
    if doubt.size > FLOOR_AMBIGUOUS_MAX:
        return None
    exact = approx[doubt]
    body = doubt < nbody
    exact[body] = chunked_power(samples[: nbody * chunk_samples].reshape(
        nbody, chunk_samples)[doubt[body]].ravel(), chunk_samples)[1]
    exact.sort()
    ahead = int(np.count_nonzero(below))
    return floor_of(np.concatenate([np.full(ahead, exact[0]), exact, np.full(
        approx.size - ahead - exact.size, exact[-1])]), percentile)


class FineGate(NamedTuple):
    """:func:`gate_runs`' answer: the active runs ``[starts, ends)`` in
    sample offsets, sorted and disjoint; the powers they were read from
    (sample ``s`` of run ``i`` at ``power[s - shift[i]]``); the samples
    gated (runs and context) and those the running sum evaluated."""

    starts: np.ndarray
    ends: np.ndarray
    power: np.ndarray
    shift: np.ndarray
    gated: int
    exact: int


def gate_runs(samples: np.ndarray, power: Optional[np.ndarray],
              starts: np.ndarray, ends: np.ndarray, window: int,
              avg_threshold: float, instant_threshold: float,
              context: Optional[np.ndarray] = None) -> FineGate:
    """Fine pass over the candidate runs: peak edges, not interiors.

    Each run of :func:`candidate_runs` (sorted, at least ``window``
    apart) is read with the ``window`` samples ahead of it as context,
    never active: from ``power`` (the whole-array ``|x|^2``, a
    fallback's) where it lies, else squared from the C-contiguous
    complex64 ``samples`` as :func:`chunked_power` does and laid back to
    back; ``context``, the powers of the samples just before ``samples``
    (a stream's last ``window - 1``), lies ahead of a run near sample 0,
    and without it the stream starts at sample 0.  A sample is
    *certainly active* when every power of its averaging window (or
    warm-up prefix) exceeds
    ``max(avg_threshold, instant_threshold)`` by the running sum's worst
    rounding.  Only the rest — peak edges, dips — go through
    :func:`energy_gate`, each span with ``window`` samples of context.
    """
    if not starts.size:
        empty = np.zeros(0, dtype=np.intp)
        return FineGate(empty, empty, np.zeros(0), empty, 0, 0)
    context = np.zeros(0) if context is None else context
    origins = np.maximum(starts - window, -context.size)
    sizes = ends - origins
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    gated = int(sizes.sum())
    if power is None or origins[0] < 0:
        laid = np.empty(gated, dtype=np.float64)
        if origins[0] < 0:
            laid[:-origins[0]] = context[context.size + origins[0]:]
        if power is None:
            flat = samples.view(np.float32)
            scratch = np.empty(2 * min(gated, TILE_SAMPLES), dtype=np.float64)
        # one iteration per run and 32k-sample tile, never per sample
        for origin, end, at in zip(origins.tolist(), ends.tolist(),
                                   offsets.tolist()):
            for a in range(max(origin, 0), end, TILE_SAMPLES):
                b = min(a + TILE_SAMPLES, end)
                dst = laid[at + a - origin: at + b - origin]
                if power is None:
                    _interleaved_power(flat[2 * a: 2 * b], scratch, dst)
                else:
                    dst[:] = power[a:b]
        power, base = laid, offsets
    else:
        base = origins
    # Every partial sum of a running sum over these non-negative powers,
    # wherever it starts, is at most the buffer's total S (the runs' own
    # powers, plus under window * avg_threshold per idle block outside
    # them).  An add rounds by at most eps/2 * S, so a moving average —
    # the window's adds, a subtraction and a division — is off by under
    # 1.5 * eps * S; a 4 * eps * S margin holds whatever the running
    # sum's origin.  A NaN bound certifies nothing.
    bound = float(power.sum()) + float(ends[-1]) * window * avg_threshold
    level = (max(avg_threshold, instant_threshold)
             + 4 * np.finfo(np.float64).eps * bound)
    # positions from here on are back to back (offsets): which powers
    # clear the level; a run's first context sample is never needed
    hi = np.empty(gated, dtype=bool)
    for at, b, size in zip(offsets.tolist(), base.tolist(), sizes.tolist()):
        np.greater(power[b: b + size], level, out=hi[at: at + size])
    hi[offsets[1:]] = False
    hs, he = run_edges(hi)
    certain = (he - hs >= window) | (hs == 0)
    if 8 * window * np.count_nonzero(certain) > gated:
        # certified spans under 8 windows apart on average (a peak-dense
        # soup; real ether reads 10-1000x sparser): the spans between
        # them cost more to gather than to gate, so decide every sample
        certain[:] = False
    # a span from the first laid sample: the stream's warm-up prefix, or
    # context the first run's own samples begin after
    cs = np.maximum(np.where(hs == 0, 0, hs + window - 1)[certain],
                    starts[0] - origins[0])
    ce = he[certain]
    cs, ce = cs[ce > cs], ce[ce > cs]
    # certified spans lie inside runs: run starts and certified ends
    # open the uncertain spans, certified starts and run ends close them
    us = np.sort(np.concatenate([offsets + starts - origins, ce]))
    ue = np.sort(np.concatenate([cs, offsets + sizes]))
    us, ue = us[ue > us], ue[ue > us]
    exact_starts = exact_ends = np.zeros(0, dtype=np.intp)
    exact = 0
    if us.size:
        # spans whose context overlaps gate as one (never across runs: a
        # run's first uncertain sample is >= window past its origin)
        gs, gb = _groups(us, ue, us[1:] - window >= ue[:-1])
        ga = np.maximum(gs - window, 0)
        lengths = gb - ga
        exact = int(lengths.sum())
        goff = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        pos = ga + (base - offsets)[np.searchsorted(offsets, ga, "right") - 1]
        # one span (a whole run) is gated where it lies, uncopied
        active = energy_gate(
            power[pos[0]: pos[0] + exact] if pos.size == 1 else np.concatenate(
                [power[a: a + n] for a, n in zip(pos.tolist(), lengths.tolist())]),
            window, avg_threshold, instant_threshold)
        ctx = np.arange(window)
        active[(goff[:, None] + ctx)[ctx < (gs - ga)[:, None]]] = False
        exact_starts, exact_ends = run_edges(active)
        back = (ga - goff)[np.searchsorted(goff, exact_starts, "right") - 1]
        exact_starts, exact_ends = exact_starts + back, exact_ends + back
    a, b = exact_starts, exact_ends
    if cs.size:
        # certified and exact runs may touch or overlap: join them
        a = np.concatenate([cs, a])
        order = np.argsort(a, kind="stable")
        a, b = a[order], np.maximum.accumulate(np.concatenate([ce, b])[order])
        a, b = _groups(a, b, a[1:] > b[:-1])
    run_of = np.searchsorted(offsets, a, side="right") - 1
    to_sample = (origins - offsets)[run_of]
    return FineGate(a + to_sample, b + to_sample, power,
                    (origins - base)[run_of], gated, exact)


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


def floor_of(chunk_powers: np.ndarray, percentile: float = 10.0) -> float:
    """Noise floor: a low percentile of the finite chunk powers (the
    ether is idle part of the time even when busy; a NaN/Inf sample's
    chunk would make the floor NaN).  With none finite it stays so."""
    if chunk_powers.size == 0:
        raise ValueError("empty buffer")
    finite = chunk_powers[np.isfinite(chunk_powers)]
    return float(np.percentile(finite if finite.size else chunk_powers,
                               percentile))
