"""Complex sample buffers and chunk iteration.

The USRP delivers an unbroken stream of complex samples; RFDump attaches
metadata at chunk granularity (default 200 samples = 25 us at 8 Msps).
:class:`SampleBuffer` wraps a complex64 array together with its
:class:`~repro.util.timebase.Timebase` so every consumer agrees on what
"sample 12345" means in wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_SAMPLE_RATE
from repro.util.timebase import Timebase


@dataclass
class SampleBuffer:
    """A finite window of the monitored sample stream.

    Attributes
    ----------
    samples:
        complex64 array of IQ samples.
    timebase:
        Maps indices in ``samples`` (offset by ``start_sample``) to seconds.
    start_sample:
        Absolute index of ``samples[0]`` in the overall stream.
    """

    samples: np.ndarray
    timebase: Timebase
    start_sample: int = 0

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.complex64)

    @classmethod
    def from_array(
        cls,
        samples,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        start_sample: int = 0,
    ) -> "SampleBuffer":
        """Wrap a raw array with a fresh timebase at ``sample_rate``."""
        return cls(np.asarray(samples), Timebase(sample_rate), start_sample)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def sample_rate(self) -> float:
        return self.timebase.sample_rate

    @property
    def duration(self) -> float:
        """Real-time duration of the buffer in seconds."""
        return self.timebase.duration(len(self.samples))

    @property
    def end_sample(self) -> int:
        return self.start_sample + len(self.samples)

    def slice(self, start: int, stop: int) -> "SampleBuffer":
        """Sub-buffer covering absolute sample indices [start, stop)."""
        lo = max(start - self.start_sample, 0)
        hi = min(stop - self.start_sample, len(self.samples))
        if hi < lo:
            hi = lo
        return SampleBuffer(self.samples[lo:hi], self.timebase, self.start_sample + lo)

    def copy(self) -> "SampleBuffer":
        """A copy that owns its samples (a slice is a view)."""
        return SampleBuffer(self.samples.copy(), self.timebase,
                            self.start_sample)

    def finite(self) -> "SampleBuffer":
        """A copy with every sample that has a NaN/Inf part set to zero."""
        samples = self.samples.copy()
        samples[~np.isfinite(samples)] = 0
        return SampleBuffer(samples, self.timebase, self.start_sample)

    def time_of(self, rel_index) -> float:
        """Wall time of a relative index into this buffer."""
        return float(self.timebase.to_time(self.start_sample + rel_index))


def chunk_views(samples: np.ndarray, chunk_samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``(body, tail)`` chunking of a 1-D array.

    ``body`` is a ``(n_full_chunks, chunk_samples)`` reshape view of the
    full chunks and ``tail`` a view of the remainder (possibly empty).
    Nothing is copied: both share memory with ``samples``, which is what
    lets per-chunk reductions run as one numpy call instead of a Python
    loop over the chunks.
    """
    if chunk_samples <= 0:
        raise ValueError("chunk_samples must be positive")
    x = np.asarray(samples)
    if x.ndim != 1:
        raise ValueError("chunk_views expects a 1-D array")
    nfull = x.size // chunk_samples
    body = x[: nfull * chunk_samples].reshape(nfull, chunk_samples)
    return body, x[nfull * chunk_samples :]


def frame_view(samples: np.ndarray, frame: int, hop: Optional[int] = None) -> np.ndarray:
    """Zero-copy ``(n_frames, frame)`` view of sliding windows over ``samples``.

    Frame ``i`` covers ``samples[i*hop : i*hop + frame]``.  Built with
    stride tricks rather than an integer index matrix, so producing the
    frames allocates nothing and touches no sample memory — the FFT (or
    whatever reduction follows) is the first thing that reads the data.
    The view is read-only because rows can alias when ``hop < frame``.
    """
    if frame <= 0:
        raise ValueError("frame must be positive")
    hop = frame if hop is None else hop
    if hop <= 0:
        raise ValueError("hop must be positive")
    x = np.asarray(samples)
    if x.ndim != 1:
        raise ValueError("frame_view expects a 1-D array")
    if x.size < frame:
        return x[:0].reshape(0, frame)
    view = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
    return view
