"""Tests for repro.core.metadata."""

import pytest

from repro.core.metadata import Peak, PeakHistory


class TestPeak:
    def test_length_and_duration(self):
        peak = Peak(100, 900, 1.0, 2.0)
        assert peak.length == 800
        assert peak.duration(8e6) == pytest.approx(1e-4)

    def test_times(self):
        peak = Peak(800, 1600, 1.0, 2.0)
        assert peak.start_time(8e6) == pytest.approx(1e-4)
        assert peak.end_time(8e6) == pytest.approx(2e-4)

    def test_overlaps(self):
        peak = Peak(100, 200, 1.0, 1.0)
        assert peak.overlaps(150, 300)
        assert not peak.overlaps(200, 300)  # half-open

    def test_frozen(self):
        with pytest.raises(Exception):
            Peak(0, 1, 1.0, 1.0).start_sample = 5


class TestPeakHistory:
    def _history(self):
        h = PeakHistory(8e6)
        h.append(0, 100, 1.0, 2.0)
        h.append(5000, 5100, 1.0, 2.0)
        h.append(10000, 10100, 1.0, 2.0)
        return h

    def test_append_assigns_index(self):
        h = self._history()
        assert [p.index for p in h] == [0, 1, 2]

    def test_len_getitem(self):
        h = self._history()
        assert len(h) == 3
        assert h[1].start_sample == 5000

    def test_starts_ends_arrays(self):
        h = self._history()
        assert h.starts.tolist() == [0, 5000, 10000]
        assert h.ends.tolist() == [100, 5100, 10100]

    def test_before_window(self):
        h = self._history()
        assert [p.index for p in h.before(2)] == [0, 1]
        assert [p.index for p in h.before(2, window=1)] == [1]
