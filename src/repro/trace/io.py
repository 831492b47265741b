"""Reading and writing IQ traces, whole-file and streaming."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from repro.dsp.samples import SampleBuffer
from repro.errors import TraceFormatError
from repro.trace.format import TraceMeta, sidecar_path
from repro.util.timebase import Timebase

_DTYPE = np.complex64

#: the default streaming window of ``rfdump`` and ``rfdumpd replay``
DEFAULT_WINDOW_MS = 200.0


def window_samples(window_ms: float, sample_rate: float) -> int:
    """The window formula of ``rfdump`` and ``rfdumpd replay``: one
    definition, so both cut a trace into the same windows.  A positive
    ``window_ms`` shorter than one sample still means one sample;
    anything else that is not a positive finite number raises
    :class:`ValueError`."""
    if not (math.isfinite(window_ms) and window_ms > 0):
        raise ValueError(
            f"window_ms must be positive and finite, got {window_ms}")
    return max(int(window_ms * 1e-3 * sample_rate), 1)


def write_trace(path, buffer: SampleBuffer, center_freq: Optional[float] = None,
                description: str = "", extra: Optional[dict] = None) -> TraceMeta:
    """Write a buffer as a raw complex64 trace + sidecar; returns the meta."""
    path = Path(path)
    samples = np.ascontiguousarray(buffer.samples, dtype=_DTYPE)
    samples.tofile(path)
    meta = TraceMeta(
        sample_rate=buffer.sample_rate,
        center_freq=center_freq if center_freq is not None else TraceMeta().center_freq,
        nsamples=len(samples),
        description=description,
        extra=extra or {},
    )
    sidecar_path(path).write_text(meta.to_json())
    return meta


def read_meta(path) -> TraceMeta:
    side = sidecar_path(path)
    if not side.exists():
        raise TraceFormatError(f"missing sidecar {side}")
    return TraceMeta.from_json(side.read_text())


def read_trace(path) -> SampleBuffer:
    """Read a whole trace into a SampleBuffer (validates the sidecar)."""
    path = Path(path)
    meta = read_meta(path)
    expected_bytes = meta.nsamples * np.dtype(_DTYPE).itemsize
    actual_bytes = path.stat().st_size
    if actual_bytes != expected_bytes:
        raise TraceFormatError(
            f"trace {path} holds {actual_bytes} bytes but sidecar "
            f"declares {meta.nsamples} samples ({expected_bytes} bytes)"
        )
    samples = np.fromfile(path, dtype=_DTYPE)
    return SampleBuffer(samples, Timebase(meta.sample_rate))


class TraceReader:
    """Streaming reader yielding fixed-size SampleBuffer windows.

    Lets a monitor process multi-second traces without holding them whole
    in memory — the shape of a live USRP feed.
    """

    def __init__(self, path, window_samples: int = 1 << 20):
        if window_samples <= 0:
            raise ValueError("window_samples must be positive")
        self.path = Path(path)
        self.meta = read_meta(self.path)
        self.window_samples = window_samples

    def __iter__(self) -> Iterator[SampleBuffer]:
        timebase = Timebase(self.meta.sample_rate)
        itemsize = np.dtype(_DTYPE).itemsize
        start = 0
        with open(self.path, "rb") as fh:
            while True:
                raw = fh.read(self.window_samples * itemsize)
                if not raw:
                    break
                if len(raw) % itemsize:
                    raise TraceFormatError(f"trace {self.path} ends mid-sample")
                samples = np.frombuffer(raw, dtype=_DTYPE)
                yield SampleBuffer(samples, timebase, start_sample=start)
                start += len(samples)


class TraceWriter:
    """Streaming writer; finalizes the sidecar on close."""

    def __init__(self, path, sample_rate: float, center_freq: float,
                 description: str = ""):
        self.path = Path(path)
        self.sample_rate = sample_rate
        self.center_freq = center_freq
        self.description = description
        self._written = 0
        self._fh = open(self.path, "wb")

    def write(self, samples: np.ndarray) -> None:
        if self._fh is None:
            raise TraceFormatError("writer already closed")
        arr = np.ascontiguousarray(samples, dtype=_DTYPE)
        arr.tofile(self._fh)
        self._written += len(arr)

    def close(self) -> TraceMeta:
        if self._fh is None:
            raise TraceFormatError("writer already closed")
        self._fh.close()
        self._fh = None
        meta = TraceMeta(
            sample_rate=self.sample_rate,
            center_freq=self.center_freq,
            nsamples=self._written,
            description=self.description,
        )
        sidecar_path(self.path).write_text(meta.to_json())
        return meta

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            self.close()
