"""Tests for multi-band scan rendering."""

import pytest

from repro import BluetoothL2PingSession, Scenario
from repro.emulator.scanning import ScanPlan, render_scan


class TestScanPlan:
    def test_dwell_sequence(self):
        plan = ScanPlan(centers=[2.41e9, 2.44e9], dwell=0.01)
        dwells = plan.dwells(0.035)
        assert len(dwells) == 4
        assert dwells[0].center_freq == 2.41e9
        assert dwells[1].center_freq == 2.44e9
        assert dwells[2].center_freq == 2.41e9  # cyclic
        assert dwells[-1].end_time == pytest.approx(0.035)

    def test_rejects_bad_plan(self):
        with pytest.raises(ValueError):
            ScanPlan(centers=[], dwell=0.01)
        with pytest.raises(ValueError):
            ScanPlan(centers=[2.4e9], dwell=0.0)


class TestRenderScan:
    @pytest.fixture(scope="class")
    def scan_windows(self):
        scenario = Scenario(duration=0.2, seed=44)
        scenario.add(
            BluetoothL2PingSession(n_pings=30, snr_db=20.0, interval_slots=6)
        )
        plan = ScanPlan(centers=[2.4125e9, 2.4415e9, 2.4705e9], dwell=0.02)
        return render_scan(scenario, plan)

    def test_window_count_and_sizes(self, scan_windows):
        assert len(scan_windows) == 10
        assert all(len(w.buffer) == 160000 for w in scan_windows)

    def test_absolute_sample_indices(self, scan_windows):
        assert scan_windows[3].buffer.start_sample == 3 * 160000

    def test_centers_cycle(self, scan_windows):
        centers = [w.dwell.center_freq for w in scan_windows[:3]]
        assert centers == [2.4125e9, 2.4415e9, 2.4705e9]

    def test_observability_depends_on_center(self, scan_windows):
        # different centers see different subsets of the hop sequence
        by_center = {}
        for w in scan_windows:
            truth = w.trace.ground_truth
            key = w.dwell.center_freq
            by_center[key] = len(truth.observable("bluetooth"))
        assert len(set(by_center.values())) > 1
