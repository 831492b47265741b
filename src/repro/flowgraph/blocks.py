"""Standard flowgraph blocks: sources, sinks and the energy filter."""

from __future__ import annotations

from typing import Any, Callable, Iterable, List

import numpy as np

from repro.constants import DEFAULT_CHUNK_SAMPLES, DEFAULT_ENERGY_THRESHOLD_DB
from repro.dsp.samples import SampleBuffer, iter_chunks
from repro.flowgraph.block import (
    ITEM_CHUNK,
    IOSignature,
    SinkBlock,
    SourceBlock,
    Block,
)
from repro.util.db import db_to_linear


class BufferChunkSource(SourceBlock):
    """Streams a :class:`SampleBuffer` as (start_sample, chunk) items."""

    out_sig = IOSignature(ITEM_CHUNK, dtype=np.complex64)

    def __init__(self, buffer: SampleBuffer, chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
                 name: str = "chunk-source"):
        super().__init__(name)
        self._buffer = buffer
        self._chunk_samples = chunk_samples

    def items(self) -> Iterable[Any]:
        return iter_chunks(self._buffer, self._chunk_samples)


class CollectSink(SinkBlock):
    """Accumulates every consumed item into :attr:`items`."""

    def __init__(self, name: str = "collect"):
        super().__init__(name)
        self.items: List[Any] = []

    def start(self) -> None:
        self.items = []

    def consume(self, item: Any) -> None:
        self.items.append(item)


class CallbackSink(SinkBlock):
    """Invokes a callback for every consumed item."""

    def __init__(self, callback: Callable[[Any], None], name: str = "callback"):
        super().__init__(name)
        self._callback = callback

    def consume(self, item: Any) -> None:
        self._callback(item)


class EnergyFilterBlock(Block):
    """Drops (start, chunk) items whose average power is below threshold.

    The standalone energy filter of the "naive with energy detection"
    baseline (Section 2.1).  ``threshold_db`` is relative to the supplied
    noise floor.
    """

    in_sig = IOSignature(ITEM_CHUNK, dtype=np.complex64)
    out_sig = IOSignature(ITEM_CHUNK, dtype=np.complex64)

    def __init__(self, noise_floor: float,
                 threshold_db: float = DEFAULT_ENERGY_THRESHOLD_DB,
                 name: str = "energy-filter"):
        super().__init__(name)
        self._threshold = noise_floor * float(db_to_linear(threshold_db))
        self.passed = 0
        self.dropped = 0

    def start(self) -> None:
        self.passed = 0
        self.dropped = 0

    def work(self, item):
        _, chunk = item
        if chunk.size and float(np.mean(np.abs(chunk) ** 2)) >= self._threshold:
            self.passed += 1
            return [item]
        self.dropped += 1
        return []
