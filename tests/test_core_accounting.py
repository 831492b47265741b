"""Tests for repro.core.accounting."""

import time

import pytest

from repro.core.accounting import StageClock


class TestStageClock:
    def test_accumulates_time(self):
        clock = StageClock()
        with clock.stage("work"):
            time.sleep(0.01)
        with clock.stage("work"):
            time.sleep(0.01)
        assert clock.seconds["work"] >= 0.02

    def test_total(self):
        clock = StageClock()
        with clock.stage("a"):
            pass
        with clock.stage("b"):
            pass
        assert clock.total_seconds() == pytest.approx(
            clock.seconds["a"] + clock.seconds["b"]
        )

    def test_cpu_over_realtime(self):
        clock = StageClock(seconds={"demod": 0.5})
        assert clock.cpu_over_realtime(0.25) == pytest.approx(2.0)
        assert clock.cpu_over_realtime(0.25, "demod") == pytest.approx(2.0)
        assert clock.cpu_over_realtime(0.25, "absent") == 0.0

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            StageClock().cpu_over_realtime(0.0)

    def test_exception_still_recorded(self):
        clock = StageClock()
        with pytest.raises(RuntimeError):
            with clock.stage("boom"):
                raise RuntimeError()
        assert "boom" in clock.seconds

    def test_samples_touched(self):
        clock = StageClock()
        clock.touch("demod", 100)
        clock.touch("demod", 50)
        assert clock.samples_touched["demod"] == 150

    def test_merged(self):
        a = StageClock(seconds={"x": 1.0}, samples_touched={"x": 10})
        b = StageClock(seconds={"x": 0.5, "y": 2.0}, samples_touched={"y": 5})
        merged = a.merged(b)
        assert merged.seconds == {"x": 1.5, "y": 2.0}
        assert merged.samples_touched == {"x": 10, "y": 5}
        # originals untouched
        assert a.seconds == {"x": 1.0}
