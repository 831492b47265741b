"""Tests for JSON/CSV export of monitoring results."""

import csv
import io
import json

from repro.analysis.export import (
    _packet_rows,
    accuracy_to_json,
    packets_to_csv,
    report_to_json,
)
from repro.analysis.stats import AccuracyReport


class TestPacketExport:
    def test_rows_sorted_by_time(self, wifi_report, wifi_trace):
        rows = _packet_rows(wifi_report.packets, wifi_trace.sample_rate)
        times = [r["time_s"] for r in rows]
        assert times == sorted(times)
        assert all(r["protocol"] == "wifi" for r in rows)

    def test_snr_included(self, wifi_report, wifi_trace):
        rows = _packet_rows(wifi_report.packets, wifi_trace.sample_rate)
        assert all(isinstance(r["snr_db"], float) for r in rows)
        # the fixture renders at 20 dB
        assert all(15 < r["snr_db"] < 25 for r in rows)

    def test_csv_round_trips(self, wifi_report, wifi_trace):
        text = packets_to_csv(wifi_report.packets, wifi_trace.sample_rate)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(wifi_report.packets)
        assert rows[0]["protocol"] == "wifi"
        assert float(rows[0]["time_s"]) >= 0

    def test_empty_csv_has_header(self):
        text = packets_to_csv([], 8e6)
        assert text.startswith("time_s,protocol")
        assert len(text.splitlines()) == 1


class TestReportExport:
    def test_json_valid_and_complete(self, wifi_report, wifi_trace):
        payload = json.loads(report_to_json(wifi_report, wifi_trace.sample_rate))
        assert payload["total_samples"] == wifi_report.total_samples
        assert len(payload["packets"]) == len(wifi_report.packets)
        assert len(payload["classifications"]) == len(wifi_report.classifications)
        assert "peak_detection" in payload["stage_seconds"]
        assert payload["forwarded_samples"]["wifi"] > 0

    def test_accuracy_json(self):
        report = AccuracyReport(
            miss_rate={"wifi": 0.01},
            false_positive_rate={"wifi": 0.001},
            found={"wifi": 99},
            total={"wifi": 100},
        )
        payload = json.loads(accuracy_to_json(report))
        assert payload["miss_rate"]["wifi"] == 0.01
        assert payload["total"]["wifi"] == 100
