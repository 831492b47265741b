"""Tests for the naive baseline architectures (repro.core.naive)."""

import numpy as np
import pytest

from repro import EnergyNaiveMonitor, NaiveMonitor, RFDumpMonitor
from repro.dsp.samples import SampleBuffer
from repro.util.timebase import Timebase


@pytest.fixture(scope="module")
def naive_report(wifi_trace):
    return NaiveMonitor(protocols=("wifi",)).process(wifi_trace.buffer)


@pytest.fixture(scope="module")
def energy_report(wifi_trace):
    return EnergyNaiveMonitor(protocols=("wifi",)).process(wifi_trace.buffer)


class TestNaive:
    def test_decodes_everything(self, naive_report, wifi_trace):
        truth = wifi_trace.ground_truth.observable("wifi")
        assert len(naive_report.packets_for("wifi")) == len(truth)

    def test_forwards_whole_trace(self, naive_report):
        assert naive_report.forwarded_samples("wifi") == naive_report.total_samples

    def test_demodulation_touches_all_samples(self, naive_report):
        touched = naive_report.clock.samples_touched["demodulation"]
        assert touched == naive_report.total_samples

    def test_no_detection_stages(self, naive_report):
        assert "peak_detection" not in naive_report.clock.seconds

    def test_demodulate_false(self, wifi_trace):
        report = NaiveMonitor(protocols=("wifi",), demodulate=False).process(
            wifi_trace.buffer
        )
        assert report.packets == []

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            NaiveMonitor(protocols=("lorawan",))


class TestEnergyNaive:
    def test_decodes_everything(self, energy_report, wifi_trace):
        truth = wifi_trace.ground_truth.observable("wifi")
        assert len(energy_report.packets_for("wifi")) == len(truth)

    def test_forwards_only_active_regions(self, energy_report, wifi_trace):
        forwarded = energy_report.forwarded_samples("wifi")
        busy = wifi_trace.ground_truth.busy_fraction()
        assert forwarded < 2 * busy * energy_report.total_samples + 40000

    def test_energy_filter_stage_recorded(self, energy_report):
        assert "energy_filter" in energy_report.clock.seconds

    def test_cheaper_than_naive(self, naive_report, energy_report):
        # the headline Figure 9 ordering at low utilization
        assert (
            energy_report.clock.seconds["demodulation"]
            < naive_report.clock.seconds["demodulation"]
        )

    def test_margin_chunks_conservative(self, wifi_trace):
        tight = EnergyNaiveMonitor(
            protocols=("wifi",), demodulate=False, margin_chunks=0
        ).process(wifi_trace.buffer)
        wide = EnergyNaiveMonitor(
            protocols=("wifi",), demodulate=False, margin_chunks=2
        ).process(wifi_trace.buffer)
        assert wide.forwarded_samples("wifi") > tight.forwarded_samples("wifi")

    @pytest.mark.parametrize("margin, regions", [
        (0, [(1600, 2000), (3000, 3050)]),
        (2, [(1200, 2400), (2600, 3050)]),
    ])
    def test_region_bounds(self, margin, regions):
        """Ten 200-sample chunks and a partial 50-sample one, from sample
        1,000: chunks 3-4 and the partial one are active.  A region is
        whole chunks widened by the margin, and the last ends with the
        buffer."""
        samples = np.ones(2_050, dtype=np.complex64)
        samples[600:1_000] = samples[2_000:] = 10.0
        buffer = SampleBuffer(samples, Timebase(8e6), start_sample=1_000)
        report = EnergyNaiveMonitor(
            protocols=("wifi",), demodulate=False, margin_chunks=margin
        ).process(buffer)
        assert [(r.start_sample, r.end_sample)
                for r in report.ranges["wifi"]] == regions


class TestArchitectureOrdering:
    """The central efficiency claim, asserted on the samples-touched cost
    model (deterministic, unlike wall-clock)."""

    def test_rfdump_forwards_least(self, wifi_trace, naive_report, energy_report):
        rfdump = RFDumpMonitor(protocols=("wifi",)).process(wifi_trace.buffer)
        n_naive = naive_report.clock.samples_touched["demodulation"]
        n_energy = energy_report.clock.samples_touched["demodulation"]
        n_rfdump = rfdump.clock.samples_touched["demodulation"]
        assert n_rfdump <= n_energy <= n_naive
        # RFDump forwards roughly the busy fraction of the trace
        busy = wifi_trace.ground_truth.busy_fraction()
        assert n_rfdump <= 1.2 * busy * n_naive + 40000
