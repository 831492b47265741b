"""Detection-stage metadata: peaks, peak history, per-chunk records.

The protocol-agnostic stage communicates with the protocol-specific
detectors by "passing metadata containing succinct information regarding
the peaks detected in every fixed chunk of samples along with a pointer to
the history of peaks detected" (Section 3.2).  :class:`PeakHistory` is that
history — a compact array of start/end timestamps — and
:class:`ChunkMetadata` is the per-chunk record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Peak:
    """One contiguous RF transmission found by the peak detector."""

    start_sample: int
    end_sample: int
    mean_power: float
    peak_power: float
    index: int = -1  # position within the PeakHistory

    @property
    def length(self) -> int:
        return self.end_sample - self.start_sample

    def duration(self, sample_rate: float) -> float:
        return self.length / sample_rate

    def start_time(self, sample_rate: float) -> float:
        return self.start_sample / sample_rate

    def end_time(self, sample_rate: float) -> float:
        return self.end_sample / sample_rate

    def overlaps(self, start_sample: int, end_sample: int) -> bool:
        return self.start_sample < end_sample and self.end_sample > start_sample


class PeakHistory:
    """Append-only array of peaks with fast time-gap queries.

    Timing detectors search this history for protocol-characteristic peak
    spacings; storing starts/ends as parallel numpy arrays makes "is there
    a peak m x 625 us back?" a vectorized query rather than a scan.
    """

    def __init__(self, sample_rate: float):
        self.sample_rate = sample_rate
        self._peaks: List[Peak] = []
        self._starts: List[int] = []
        self._ends: List[int] = []
        # cached (read-only) array forms of _starts/_ends; rebuilt lazily
        # after appends so the timing detectors' many queries don't pay a
        # list->array conversion each
        self._starts_arr: Optional[np.ndarray] = None
        self._ends_arr: Optional[np.ndarray] = None

    def _invalidate(self) -> None:
        self._starts_arr = None
        self._ends_arr = None

    def append(self, start_sample: int, end_sample: int, mean_power: float,
               peak_power: float) -> Peak:
        peak = Peak(start_sample, end_sample, mean_power, peak_power,
                    index=len(self._peaks))
        self._peaks.append(peak)
        self._starts.append(start_sample)
        self._ends.append(end_sample)
        self._invalidate()
        return peak

    def extend_from_arrays(self, starts: np.ndarray, ends: np.ndarray,
                           mean_powers: np.ndarray, peak_powers: np.ndarray) -> None:
        """Bulk-append peaks from parallel arrays (the vectorized detector).

        Equivalent to calling :meth:`append` per element, but the index
        bookkeeping is batched and the array caches are filled directly
        when the history starts empty (the common detection-stage case).
        """
        base = len(self._peaks)
        s_list = [int(v) for v in starts.tolist()]
        e_list = [int(v) for v in ends.tolist()]
        self._peaks.extend(
            Peak(s, e, float(m), float(p), index=base + i)
            for i, (s, e, m, p) in enumerate(
                zip(s_list, e_list, mean_powers.tolist(), peak_powers.tolist())
            )
        )
        self._starts.extend(s_list)
        self._ends.extend(e_list)
        self._invalidate()

    @classmethod
    def of(cls, sample_rate: float, peaks: Sequence[Peak]) -> "PeakHistory":
        """A history of ``peaks`` as given, each keeping its ``index``
        (a subset of another history: its peaks by their index there)."""
        history = cls(sample_rate)
        history._peaks = list(peaks)
        history._starts = [p.start_sample for p in history._peaks]
        history._ends = [p.end_sample for p in history._peaks]
        return history

    def __len__(self) -> int:
        return len(self._peaks)

    def __getitem__(self, index) -> Peak:
        return self._peaks[index]

    def __iter__(self):
        return iter(self._peaks)

    @property
    def starts(self) -> np.ndarray:
        if self._starts_arr is None:
            arr = np.asarray(self._starts, dtype=np.int64)
            arr.flags.writeable = False
            self._starts_arr = arr
        return self._starts_arr

    @property
    def ends(self) -> np.ndarray:
        if self._ends_arr is None:
            arr = np.asarray(self._ends, dtype=np.int64)
            arr.flags.writeable = False
            self._ends_arr = arr
        return self._ends_arr

    def before(self, index: int, window: Optional[int] = None) -> List[Peak]:
        """Peaks preceding ``index``, optionally only the last ``window``."""
        lo = 0 if window is None else max(index - window, 0)
        return self._peaks[lo:index]

    def starts_near(self, index: int, target_starts: np.ndarray,
                    tolerance_samples: int) -> List[Peak]:
        """Peaks before ``index`` whose start is within tolerance of any target."""
        if index <= 0:
            return []
        starts = self.starts[:index]
        targets = np.asarray(target_starts, dtype=np.int64)
        close = np.abs(starts[:, None] - targets[None, :]) <= tolerance_samples
        return [self._peaks[i] for i in np.flatnonzero(close.any(axis=1))]


@dataclass
class ChunkMetadata:
    """Aggregate peak information for one chunk of samples."""

    start_sample: int
    n_samples: int
    mean_power: float
    n_peaks: int
    active: bool  # passed the integrated energy filter
    #: indices into the PeakHistory of peaks overlapping this chunk
    peak_indices: List[int] = field(default_factory=list)
    history: Optional[PeakHistory] = None
