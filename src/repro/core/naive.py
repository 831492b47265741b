"""The baseline architectures RFDump is evaluated against (Figure 1).

* :class:`NaiveMonitor` — every demodulator processes the entire sample
  stream; cost is (roughly) constant regardless of medium utilization.
* :class:`EnergyNaiveMonitor` — a chunk-level energy filter in front of
  the same demodulators; cost scales with medium utilization and
  approaches the naive cost as the ether gets busy.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_CHUNK_SAMPLES, DEFAULT_ENERGY_THRESHOLD_DB
from repro.analysis.decoders import PacketRecord, make_decoder
from repro.core.accounting import StageClock
from repro.core.config import MonitorConfig, resolve_monitor_config
from repro.core.errorpolicy import ErrorRecord, sanitize_nonfinite
from repro.core.monitor import Monitor
from repro.core.pipeline import MonitorReport
from repro.dsp.energy import chunk_average_power
from repro.dsp.samples import SampleBuffer
from repro.obs import NULL
from repro.util.db import db_to_linear


class NaiveMonitor(Monitor):
    """Figure 1: the entire input stream goes to every demodulator.

    Takes ``config=`` or the config's fields as keywords, like
    :class:`~repro.core.pipeline.RFDumpMonitor`; fields the baseline has
    no use for (kinds, demodulate) are simply ignored.
    """

    def __init__(self, config: Optional[MonitorConfig] = None, **fields):
        cfg = resolve_monitor_config(config, **fields)
        self.config = cfg
        self.obs = cfg.obs
        self.on_error = cfg.on_error
        self.sample_rate = cfg.sample_rate
        self.center_freq = cfg.center_freq
        self.protocols = cfg.protocols
        self.demodulate = cfg.demodulate
        self._decoders = {
            protocol: make_decoder(protocol, self.sample_rate,
                                   self.center_freq)
            for protocol in self.protocols
        }

    def _regions(self, buffer: SampleBuffer, clock: StageClock) -> List[Tuple[int, int]]:
        """Sample ranges handed to every demodulator (here: everything)."""
        return [(buffer.start_sample, buffer.end_sample)]

    def process(self, buffer: SampleBuffer) -> MonitorReport:
        if not len(buffer):
            return MonitorReport.empty()
        clock = StageClock(obs=self.obs)
        obs = self.obs or NULL
        obs.counter(
            "rfdump_samples_total", help="samples entering the monitor"
        ).inc(len(buffer))
        # no peak detector in front to zero a NaN/Inf sample: the energy
        # filter and every demodulator would read it
        bad = len(buffer) - int(np.count_nonzero(np.isfinite(buffer.samples)))
        errors: List[ErrorRecord] = []
        buffer = sanitize_nonfinite(buffer, bad, "stream", type(self).__name__,
                                    self.on_error, errors)
        regions = self._regions(buffer, clock)
        ranges = {
            protocol: [
                # the naive architectures forward regions to all protocols
                _PlainRange(start, end) for start, end in regions
            ]
            for protocol in self.protocols
        }
        packets: List[PacketRecord] = []
        if self.demodulate:
            for protocol in self.protocols:
                decoder = self._decoders[protocol]
                if decoder is None:  # nothing to demodulate (microwave)
                    continue
                with obs.span(f"demod[{protocol}]", category="task",
                              protocol=protocol):
                    with clock.stage("demodulation"):
                        for start, end in regions:
                            sub = buffer.slice(start, end)
                            clock.touch("demodulation", len(sub))
                            packets.extend(decoder.scan(sub))
        for packet in packets:
            obs.counter(
                "rfdump_packets_decoded_total",
                help="packets the analysis stage decoded",
                protocol=packet.protocol,
            ).inc()
        return MonitorReport(
            total_samples=len(buffer),
            duration=buffer.duration,
            peaks=None,
            classifications=[],
            ranges=ranges,
            packets=packets,
            clock=clock,
            errors=errors,
        )


class _PlainRange:
    """Minimal stand-in for DispatchedRange in the baseline reports."""

    def __init__(self, start_sample: int, end_sample: int):
        self.start_sample = start_sample
        self.end_sample = end_sample
        self.channel = None
        self.peak_indices: List[int] = []
        self.confidence = 0.0

    @property
    def length(self) -> int:
        return self.end_sample - self.start_sample


class EnergyNaiveMonitor(NaiveMonitor):
    """Naive + a chunk-level energy filter before the demodulators."""

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        *,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
        threshold_db: float = DEFAULT_ENERGY_THRESHOLD_DB,
        margin_chunks: int = 1,
        **fields,
    ):
        super().__init__(config, **fields)
        self.chunk_samples = chunk_samples
        self.threshold_db = threshold_db
        self.noise_floor = self.config.noise_floor
        self.margin_chunks = margin_chunks

    def _regions(self, buffer: SampleBuffer, clock: StageClock) -> List[Tuple[int, int]]:
        with clock.stage("energy_filter"):
            clock.touch("energy_filter", len(buffer))
            powers = chunk_average_power(buffer.samples, self.chunk_samples)
            floor = self.noise_floor
            if floor is None:
                floor = float(np.percentile(powers, 10.0))
            threshold = floor * float(db_to_linear(self.threshold_db))
            active = powers > threshold
            # conservative filtering: keep a margin of chunks around every
            # active chunk so packet edges survive (Section 3.1)
            if self.margin_chunks > 0 and active.any():
                padded = active.copy()
                for shift in range(1, self.margin_chunks + 1):
                    padded[shift:] |= active[:-shift]
                    padded[:-shift] |= active[shift:]
                active = padded
            regions: List[Tuple[int, int]] = []
            cs = self.chunk_samples
            run_start = None
            for i, on in enumerate(active):
                if on and run_start is None:
                    run_start = i
                elif not on and run_start is not None:
                    regions.append((run_start * cs, i * cs))
                    run_start = None
            if run_start is not None:
                regions.append((run_start * cs, len(buffer)))
        base = buffer.start_sample
        return [(base + lo, base + hi) for lo, hi in regions]
