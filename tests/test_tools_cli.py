"""Tests for the rfdump / rfrecord command-line tools."""

import pytest

from repro.tools import rfdump, rfrecord


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mix.iq"
    code = rfrecord.main([str(path), "--preset", "wifi", "--duration", "0.08",
                          "--seed", "5"])
    assert code == 0
    return path


class TestRfrecord:
    def test_writes_trace_and_sidecar(self, recorded):
        assert recorded.exists()
        assert recorded.with_suffix(".iq.json").exists()

    def test_all_presets_render(self, tmp_path):
        for preset in rfrecord.PRESETS:
            path = tmp_path / f"{preset}.iq"
            code = rfrecord.main(
                [str(path), "--preset", preset, "--duration", "0.05"]
            )
            assert code == 0, preset
            assert path.stat().st_size == 0.05 * 8e6 * 8

    def test_metadata_extras(self, recorded):
        from repro.trace.io import read_meta

        meta = read_meta(recorded)
        assert meta.extra["preset"] == "wifi"
        assert meta.extra["observable_transmissions"] > 0

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            rfrecord.main([str(tmp_path / "x.iq"), "--preset", "nope"])


class TestRfdump:
    def test_packet_log(self, recorded, capsys):
        code = rfdump.main([str(recorded)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wifi" in out
        assert "ACK" in out

    def test_summary_mode(self, recorded, capsys):
        code = rfdump.main([str(recorded), "--summary", "--protocols", "wifi"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decoded packets" in out
        assert "real time" in out

    def test_summary_counts_dispatched_and_decoded_ranges(self, recorded, capsys):
        # the unicast trace: every Wi-Fi range decodes, and the six
        # Bluetooth timing claims the slot-spaced pings draw sit on
        # Barker-chipped peaks, so dispatch overrules them and forwards
        # no Bluetooth range (the parent forwarded 6 that decoded nothing)
        assert rfdump.main([str(recorded), "--summary"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [c.strip() for c in lines[1].split("  ") if c.strip()] == [
            "protocol", "classifications", "overruled", "ranges",
            "ranges decoded", "decoded packets", "decoded bytes"]
        table = {row.split()[0]: [int(v) for v in row.split()[1:]]
                 for row in lines[3:5]}
        assert table["wifi"][1:5] == [0, 8, 8, 16]
        assert table["bluetooth"][:5] == [6, 6, 0, 0, 0]
        assert all(row[3] <= row[2] for row in table.values())
        # without demodulation a range is still forwarded, never decoded
        assert rfdump.main([str(recorded), "--summary", "--no-demod"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:5]
        assert [[int(v) for v in row.split()[2:5]] for row in rows] == [
            [0, 8, 0], [6, 0, 0]]

    @pytest.mark.parametrize("preset, peaks, ranges", [
        ("wifi", 43, 22), ("kitchen", 38, 13)])
    def test_summary_tallies_every_pass(self, preset, peaks, ranges,
                                        tmp_path, capsys):
        """The summary counts every pass the stream ran, the flush's
        included, so at every window size its peaks and dispatched
        ranges are the one-shot monitor's (they missed the flush
        pass's: 42 and 21 on wifi, 37 and 12 on kitchen)."""
        from repro import RFDumpMonitor
        from repro.trace.io import read_trace

        path = tmp_path / f"{preset}.iq"
        assert rfrecord.main([str(path), "--preset", preset, "--duration",
                              "0.21", "--seed", "5"]) == 0
        one_shot = RFDumpMonitor().process(read_trace(path))
        assert len(one_shot.peaks) == peaks
        assert sum(map(len, one_shot.ranges.values())) == ranges
        for window_ms in ("200", "50", "20"):
            capsys.readouterr()
            assert rfdump.main([str(path), "--summary",
                                "--window-ms", window_ms]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert f", {peaks} peaks, " in lines[0], window_ms
            assert sum(int(row.split()[3]) for row in lines[3:5]) == ranges

    def test_summary_title_reports_the_gated_share(self, recorded, tmp_path,
                                                   capsys):
        """``..., N peaks, S% of samples gated, E% decided sample by
        sample``: the share of scanned samples the peak detector's coarse
        pass could not rule out, and the smaller share whose moving
        average its fine pass evaluated."""
        import re

        def share(path, *flags):
            assert rfdump.main([str(path), "--summary", *flags]) == 0
            title = capsys.readouterr().out.splitlines()[0]
            match = re.search(r", (\d+) peaks, (\d+\.\d)% of samples gated, "
                              r"(\d+\.\d)% decided sample by sample$", title)
            assert match, title
            gated, exact = float(match.group(2)), float(match.group(3))
            assert exact <= gated
            return gated

        assert 0.0 < share(recorded) <= 100.0
        assert 0.0 < share(recorded, "--window-ms", "20") <= 100.0
        idle = tmp_path / "bt.iq"
        assert rfrecord.main([str(idle), "--preset", "bluetooth",
                              "--duration", "0.1", "--seed", "3"]) == 0
        capsys.readouterr()
        assert 0.0 < share(idle) < 25.0
        # no detection stage, nothing gated
        assert share(recorded, "--monitor", "naive") == 0.0

    def test_no_demod(self, recorded, capsys):
        code = rfdump.main([str(recorded), "--no-demod", "--summary"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decoded packets" in out

    def test_missing_file(self, tmp_path, capsys):
        code = rfdump.main([str(tmp_path / "absent.iq")])
        assert code == 2

    def test_window_size_option(self, recorded, capsys):
        code = rfdump.main([str(recorded), "--window-ms", "40", "--summary"])
        assert code == 0

    @pytest.mark.parametrize("flags", [
        ["--window-ms", "inf"], ["--protocols", "wifi,foo"],
        ["--protocols", "foo"],
        # was: silently one-sample windows (0.08 s = 640 000 of them)
        ["--window-ms", "0"], ["--window-ms", "-5"], ["--window-ms", "nan"],
    ])
    def test_bad_flag_value_is_one_line_and_exit_2(self, recorded, capsys,
                                                   flags):
        assert rfdump.main([str(recorded), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("rfdump: ")

    def test_monitor_baseline_selection(self, recorded, capsys):
        code = rfdump.main([str(recorded), "--monitor", "naive", "--summary"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decoded packets" in out


class TestRfdumpEventFormat:
    def test_jsonl_emits_canonical_events(self, recorded, capsys):
        import json

        from repro.core.events import EVENT_SCHEMA_VERSION, read_events

        code = rfdump.main([str(recorded), "--format", "jsonl"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        events = list(read_events(lines))
        assert [e.seq for e in events] == list(range(len(events)))
        for line, event in zip(lines, events):
            # each line is the canonical wire form: re-encoding is identity
            assert event.to_json() == line
            assert json.loads(line)["v"] == EVENT_SCHEMA_VERSION

    def test_jsonl_matches_text_mode_packet_count(self, recorded, capsys):
        assert rfdump.main([str(recorded)]) == 0
        text_lines = [line for line in capsys.readouterr().out.splitlines()
                      if line and not line.startswith("#")]
        assert rfdump.main([str(recorded), "--format", "jsonl"]) == 0
        jsonl_lines = capsys.readouterr().out.splitlines()
        assert len(jsonl_lines) == len(text_lines)

    def test_removed_shards_flag_rejected(self, recorded, capsys):
        with pytest.raises(SystemExit) as exc:
            rfdump.main([str(recorded), "--shards", "2"])
        assert exc.value.code == 2

    def test_capture_sinks(self, recorded, tmp_path, capsys):
        import json
        import struct

        pcap_path = tmp_path / "events.pcap"
        sigmf_path = tmp_path / "events.sigmf-meta"
        code = rfdump.main([str(recorded), "--format", "jsonl",
                            "--pcap-out", str(pcap_path),
                            "--sigmf-out", str(sigmf_path)])
        assert code == 0
        n_events = len(capsys.readouterr().out.splitlines())

        raw = pcap_path.read_bytes()
        magic, _, _, _, _, _, link = struct.unpack("<IHHiIII", raw[:24])
        assert magic == 0xA1B2C3D4
        assert link == 147  # DLT_USER0
        offset, records = 24, 0
        while offset < len(raw):
            _, _, cap, orig = struct.unpack("<IIII", raw[offset:offset + 16])
            assert cap == orig
            json.loads(raw[offset + 16:offset + 16 + cap])  # JSON payload
            offset += 16 + cap
            records += 1
        assert records == n_events

        doc = json.loads(sigmf_path.read_text())
        assert doc["global"]["core:datatype"] == "cf32_le"
        assert len(doc["annotations"]) == n_events
        starts = [a["core:sample_start"] for a in doc["annotations"]]
        assert starts == sorted(starts)


class TestRfdumpdCLI:
    def test_address_parsing(self):
        from repro.tools.rfdumpd import _address

        assert _address("127.0.0.1:4951") == ("127.0.0.1", 4951)
        with pytest.raises(Exception):
            _address("no-port")

    def test_replay_connection_refused(self, recorded, capsys):
        from repro.tools import rfdumpd

        # a closed port: connection errors exit 2, like a missing file
        code = rfdumpd.main(["replay", str(recorded),
                             "--connect", "127.0.0.1:1"])
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_replay_rejects_bad_window_before_connecting(
            self, recorded, capsys, monkeypatch, value):
        import socket

        from repro.tools import rfdumpd

        def no_socket(*args, **kwargs):
            raise AssertionError("opened a socket for a bad --window-ms")

        monkeypatch.setattr(socket, "create_connection", no_socket)
        assert rfdumpd.main(["replay", str(recorded), "--connect",
                             "127.0.0.1:1", "--window-ms", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("rfdumpd: window_ms must be positive")

    @pytest.mark.parametrize("kind", ["typo", "sharded"])
    def test_serve_rejects_unknown_monitor(self, kind, capsys):
        from repro.tools import rfdumpd

        with pytest.raises(SystemExit) as exc:
            rfdumpd.main(["serve", "--monitor", kind])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no announce line
        (line,) = captured.err.splitlines()
        assert line.startswith("rfdumpd serve: ")

    @pytest.mark.parametrize("flags", [
        ["--protocols", "foo"], ["--protocols", "wifi,foo"],
        ["--sample-rate", "-8000000"], ["--sample-rate", "0"],
        ["--sample-rate", "nan"], ["--center-freq", "inf"],
    ])
    def test_serve_rejects_bad_config_before_announcing(self, flags, capsys):
        """Was: a pump-thread traceback (``--protocols foo``) behind an
        announced port serving an empty stream, or a bare traceback."""
        import threading

        from repro.tools import rfdumpd

        threads = threading.active_count()
        assert rfdumpd.main(["serve", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no announce line
        (line,) = captured.err.splitlines()
        assert line.startswith("rfdumpd: ")
        assert threading.active_count() == threads

    def test_serve_replay_subscribe_round_trip(self, recorded, capsys):
        import json

        from repro import MonitorConfig
        from repro.service import RFDumpDaemon
        from repro.tools import rfdumpd
        from repro.trace.io import read_meta

        meta = read_meta(recorded)
        config = MonitorConfig(sample_rate=meta.sample_rate,
                               center_freq=meta.center_freq,
                               protocols=("wifi",))
        with RFDumpDaemon(config) as daemon:
            host, port = daemon.address
            connect = f"{host}:{port}"
            assert rfdumpd.main(["replay", str(recorded),
                                 "--connect", connect]) == 0
            done = json.loads(capsys.readouterr().out)
            assert done["type"] == "done"
            assert rfdumpd.main(["subscribe", "--connect", connect]) == 0
            sub_lines = capsys.readouterr().out.splitlines()
        assert len(sub_lines) == done["events"]
        # the subscriber stream is the rfdump --format jsonl stream
        assert rfdump.main([str(recorded), "--format", "jsonl",
                            "--protocols", "wifi"]) == 0
        cli_lines = capsys.readouterr().out.splitlines()
        assert sub_lines == cli_lines


class TestRfdumpObservability:
    def test_metrics_out_is_prometheus_parseable(self, recorded, tmp_path, capsys):
        out_path = tmp_path / "metrics.txt"
        code = rfdump.main([str(recorded), "--summary",
                            "--metrics-out", str(out_path)])
        assert code == 0
        page = out_path.read_text()
        assert "# TYPE rfdump_samples_total counter" in page
        assert "rfdump_packets_decoded_total" in page
        # every non-comment line is `name{labels} value`
        for line in page.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            if value != "+Inf":
                float(value)

    def test_trace_out_chrome_format(self, recorded, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        code = rfdump.main([str(recorded), "--summary",
                            "--trace-out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert "process" in names
        assert "peak_detection" in names
        assert all({"name", "ph", "pid", "tid", "ts"} <= set(e)
                   for e in events if e.get("ph") == "X")

    def test_trace_out_jsonl_format(self, recorded, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.jsonl"
        code = rfdump.main([str(recorded), "--summary",
                            "--trace-out", str(out_path)])
        assert code == 0
        spans = [json.loads(line)
                 for line in out_path.read_text().splitlines() if line]
        assert spans
        assert all("t_start" in s and "name" in s for s in spans)
