"""repro.bench harness: results schema, comparisons, runner, CLI gate."""

import types

import numpy as np
import pytest

from repro.bench.machine import calibrate
from repro.bench.registry import Benchmark, BenchContext
from repro.bench.results import (
    SCHEMA_VERSION,
    BenchResult,
    compare_results,
    load_result,
    load_results,
    machine_fingerprint,
    render_comparison,
    write_result,
)
from repro.bench.runner import BenchOptions, BenchRunner
from repro.obs import Observability
from repro.tools import rfbench
from repro.tools.rfbench import (
    _check_latency_requirements,
    _parse_latency_requirements,
)


def _result(name="peak_detection", normalized=1.0, **overrides):
    kwargs = dict(
        name=name, n_samples=1000, repeats=3, warmup=1,
        seconds=[0.2, 0.1, 0.3], samples_per_second=10_000.0,
        normalized=normalized, calibration_sps=1e8,
    )
    kwargs.update(overrides)
    return BenchResult(**kwargs)


class TestResults:
    def test_roundtrip(self, tmp_path):
        original = _result(impl="reference", quick=True,
                           equivalence_checked=True, meta={"peaks": 7})
        path = write_result(str(tmp_path), original)
        assert path.endswith("BENCH_peak_detection.json")
        loaded, machine = load_result(path)
        assert loaded == original
        assert machine == machine_fingerprint()

    def test_median_seconds(self):
        assert _result().median_seconds == 0.2
        assert _result(seconds=[0.4, 0.1]).median_seconds == pytest.approx(0.25)

    def test_schema_version_gate(self, tmp_path):
        path = write_result(str(tmp_path), _result())
        text = (tmp_path / "BENCH_peak_detection.json").read_text()
        bumped = text.replace(
            f'"schema_version": {SCHEMA_VERSION}',
            f'"schema_version": {SCHEMA_VERSION + 1}',
        )
        (tmp_path / "BENCH_peak_detection.json").write_text(bumped)
        with pytest.raises(ValueError):
            load_result(path)

    def test_load_results_directory(self, tmp_path):
        write_result(str(tmp_path), _result("a"))
        write_result(str(tmp_path), _result("b"))
        (tmp_path / "notes.txt").write_text("ignored")
        assert sorted(load_results(str(tmp_path))) == ["a", "b"]
        assert load_results(str(tmp_path / "missing")) == {}


class TestCompare:
    def test_regression_detected(self):
        rows = compare_results(
            {"x": _result("x", normalized=0.70)},
            {"x": _result("x", normalized=1.00)},
            max_regress=0.25,
        )
        (row,) = rows
        assert row.regressed and row.speedup == pytest.approx(0.70)

    def test_within_budget_passes(self):
        (row,) = compare_results(
            {"x": _result("x", normalized=0.80)},
            {"x": _result("x", normalized=1.00)},
            max_regress=0.25,
        )
        assert not row.regressed

    def test_one_sided_benchmarks_never_fail(self):
        rows = compare_results(
            {"new": _result("new")},
            {"old": _result("old")},
        )
        assert {r.name: r.note for r in rows} == {
            "new": "no committed baseline",
            "old": "missing from current run",
        }
        assert not any(r.regressed for r in rows)

    def test_quick_mismatch_noted(self):
        (row,) = compare_results(
            {"x": _result("x", quick=True)},
            {"x": _result("x", quick=False)},
        )
        assert "quick" in row.note

    def test_render_mentions_regression(self):
        rows = compare_results(
            {"x": _result("x", normalized=0.5)},
            {"x": _result("x", normalized=1.0)},
        )
        table = render_comparison(rows, 0.25)
        assert "REGRESSED" in table


class TestRunner:
    def _tiny_bench(self, equivalence=None):
        def setup(ctx):
            return np.arange(4096, dtype=np.float64)

        def run(workload, ctx):
            np.cumsum(workload * workload)
            return workload.size

        return Benchmark(name="tiny", description="tiny", setup=setup,
                         run=run, equivalence=equivalence, tags=("test",))

    def test_run_one_produces_sane_result(self):
        obs = Observability()
        runner = BenchRunner(BenchOptions(repeats=3, warmup=1, quick=True),
                             obs=obs)
        result = runner.run_one(self._tiny_bench(), calibration_sps=1e9)
        assert result.name == "tiny"
        assert result.n_samples == 4096
        assert len(result.seconds) == 3
        assert result.samples_per_second > 0
        assert result.normalized == pytest.approx(
            result.samples_per_second / 1e9
        )
        assert not result.equivalence_checked
        gauge = obs.gauge("rfdump_bench_samples_per_second", bench="tiny")
        assert gauge.value == result.samples_per_second

    def test_equivalence_hook_runs_before_timing(self):
        calls = []

        def equivalence(workload, ctx):
            calls.append(len(workload))
            return {"checked": True}

        runner = BenchRunner(BenchOptions(repeats=1, warmup=0))
        result = runner.run_one(self._tiny_bench(equivalence),
                                calibration_sps=1e9)
        assert calls == [4096]
        assert result.equivalence_checked
        assert result.meta["equivalence"] == {"checked": True}

    def test_equivalence_failure_aborts(self):
        def equivalence(workload, ctx):
            raise AssertionError("kernels diverged")

        runner = BenchRunner(BenchOptions(repeats=1, warmup=0))
        with pytest.raises(AssertionError):
            runner.run_one(self._tiny_bench(equivalence), calibration_sps=1e9)

    @pytest.mark.parametrize("impl", ["vectorized", "reference"])
    def test_phase_detectors_bench_times_classify_only(self, impl):
        from repro.bench.registry import get_benchmark

        runner = BenchRunner(BenchOptions(repeats=1, warmup=0, quick=True,
                                          impl=impl))
        result = runner.run_one(get_benchmark("phase_detectors"),
                                calibration_sps=1e9)
        assert result.equivalence_checked and result.impl == impl
        assert result.meta["equivalence"]["classifications"] > 0
        # throughput is per ether sample the detected peaks came from
        assert result.n_samples == int(0.1 * 8e6) + int(0.05 * 8e6)

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            BenchOptions(repeats=0)
        with pytest.raises(ValueError):
            BenchOptions(warmup=-1)


def test_calibrate_is_positive_and_repeatable():
    assert calibrate(repeats=3) > 0


class TestSpeedupMeasurement:
    def test_measure_speedup_interleaves_in_process(self):
        from repro.bench import measure_speedup

        m = measure_speedup(TestRunner()._tiny_bench(),
                            BenchOptions(repeats=2, warmup=1, quick=True))
        assert m.name == "tiny"
        assert len(m.reference_seconds) == len(m.current_seconds) == 2
        assert m.factor > 0


class TestCli:
    def test_list_names_all_benchmarks(self, capsys):
        assert rfbench.main(["list"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines()]
        assert names == ["demod_bluetooth", "demod_wifi", "energy_features",
                         "fft_spectrogram", "peak_detection",
                         "peak_detection_dense", "peak_detection_sparse",
                         "phase_detectors",
                         "pipeline_mix", "window_latency"]

    def test_compare_gate(self, tmp_path, capsys):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        write_result(str(base), _result("x", normalized=1.0))
        write_result(str(cur), _result("x", normalized=0.5))
        code = rfbench.main([
            "compare", "--baseline", str(base), "--current", str(cur),
        ])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_require_speedup(self, tmp_path, capsys):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        write_result(str(base), _result("x", normalized=1.0))
        write_result(str(cur), _result("x", normalized=2.5))
        ok = rfbench.main([
            "compare", "--baseline", str(base), "--current", str(cur),
            "--require-speedup", "x:2.0",
        ])
        assert ok == 0
        capsys.readouterr()
        fail = rfbench.main([
            "compare", "--baseline", str(base), "--current", str(cur),
            "--require-speedup", "x:3.0",
        ])
        assert fail == 1

    def test_compare_missing_dirs(self, tmp_path):
        code = rfbench.main([
            "compare", "--baseline", str(tmp_path / "none"),
            "--current", str(tmp_path / "none"),
        ])
        assert code == 2

    def test_committed_baselines_load(self):
        results = load_results("benchmarks/baselines")
        assert "peak_detection" in results
        assert results["peak_detection"].equivalence_checked
        assert results["phase_detectors"].equivalence_checked
        assert "phase_features" not in results
        reference = load_results("benchmarks/baselines/reference")
        assert reference["peak_detection"].impl == "reference"
        assert reference["phase_detectors"].impl == "reference"


# -- the rfbench latency SLO gate --------------------------------------------

def _latency_result(name, meta):
    return types.SimpleNamespace(name=name, meta=meta)


class TestRfbenchLatencyGate:
    def test_parse_ok(self):
        assert _parse_latency_requirements(["window_latency:0.45"]) == [
            ("window_latency", 0.45)
        ]

    @pytest.mark.parametrize("spec", ["nocolon", ":0.45", "name:abc",
                                      "name:-1"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(SystemExit):
            _parse_latency_requirements([spec])

    def test_gate_passes_under_limit(self, capsys):
        results = [_latency_result("window_latency",
                           {"latency": {"p99": 0.08, "p50": 0.05,
                                        "windows": 10}})]
        assert _check_latency_requirements(
            results, [("window_latency", 0.45)]) == []
        assert "meets the 450.0ms SLO" in capsys.readouterr().out

    def test_gate_fails_over_limit(self):
        results = [_latency_result("window_latency",
                           {"latency": {"p99": 0.9, "p50": 0.1,
                                        "windows": 10}})]
        (message,) = _check_latency_requirements(
            results, [("window_latency", 0.45)])
        assert "exceeds" in message

    def test_gate_fails_without_latency_report(self):
        (message,) = _check_latency_requirements(
            [_latency_result("peak_detection", {"tags": []})],
            [("peak_detection", 0.45)])
        assert "no latency report" in message
        assert _check_latency_requirements([], [("missing", 0.1)])
